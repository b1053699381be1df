package grid

import "fmt"

// BoxSplit is the CPU/GPU partition of a task-local domain (paper §IV-H,
// Fig. 1): the GPU computes an interior block and the CPU computes the
// enclosing box (shell) of wall thickness T around it. T is the tunable
// load-balance parameter of §IV-H/§IV-I; the paper finds the best T is
// often just 1, a "veneer" of CPU points.
type BoxSplit struct {
	Local Dims // task-local interior extents
	T     int  // shell thickness in points
}

// NewBoxSplit validates that a thickness-t shell leaves a non-empty interior
// block in an n-point local domain.
func NewBoxSplit(n Dims, t int) (BoxSplit, error) {
	if t < 0 {
		return BoxSplit{}, fmt.Errorf("grid: negative box thickness %d", t)
	}
	if 2*t >= n.X || 2*t >= n.Y || 2*t >= n.Z {
		return BoxSplit{}, fmt.Errorf("grid: thickness %d leaves no GPU interior in %v", t, n)
	}
	return BoxSplit{Local: n, T: t}, nil
}

// Inner returns the GPU's interior block in local coordinates.
func (b BoxSplit) Inner() Subdomain {
	t := b.T
	return Subdomain{
		Lo:   Dims{t, t, t},
		Size: Dims{b.Local.X - 2*t, b.Local.Y - 2*t, b.Local.Z - 2*t},
	}
}

// ShellVolume returns the number of CPU (shell) points.
func (b BoxSplit) ShellVolume() int {
	return b.Local.Volume() - b.Inner().Volume()
}

// Walls returns the six disjoint slabs that tile the CPU shell, ordered
// -z, +z, -y, +y, -x, +x. The z walls span full xy planes; the y walls
// exclude the z walls; the x walls exclude both. An implementation that
// overlaps MPI in dimension d with CPU computation of the d walls (paper
// §IV-I) iterates this slice two at a time. With T == 0 all walls are empty.
// In a dimension thinner than 2T (the one-point-wide boundary of a thin
// block) the low wall keeps what fits, the high wall the rest and the
// walls between them are empty, so the slabs still tile the domain.
func (b BoxSplit) Walls() []Subdomain {
	t := b.T
	n := b.Local
	low := func(m int) int { return min(t, m) }
	high := func(m int) int { return max(0, min(t, m-t)) }
	mid := func(m int) int { return max(0, m-2*t) }
	return []Subdomain{
		{Lo: Dims{0, 0, 0}, Size: Dims{n.X, n.Y, low(n.Z)}},
		{Lo: Dims{0, 0, n.Z - high(n.Z)}, Size: Dims{n.X, n.Y, high(n.Z)}},
		{Lo: Dims{0, 0, t}, Size: Dims{n.X, low(n.Y), mid(n.Z)}},
		{Lo: Dims{0, n.Y - high(n.Y), t}, Size: Dims{n.X, high(n.Y), mid(n.Z)}},
		{Lo: Dims{0, t, t}, Size: Dims{low(n.X), mid(n.Y), mid(n.Z)}},
		{Lo: Dims{n.X - high(n.X), t, t}, Size: Dims{high(n.X), mid(n.Y), mid(n.Z)}},
	}
}

// WallsByDim returns the pair of walls whose outward normal is along dim,
// matching the §IV-I overlap schedule (communication to the ±dim neighbors
// overlaps computation of the ±dim walls). dim is 0 for x, 1 for y, 2 for z.
func (b BoxSplit) WallsByDim(dim int) [2]Subdomain {
	w := b.Walls()
	switch dim {
	case 2:
		return [2]Subdomain{w[0], w[1]}
	case 1:
		return [2]Subdomain{w[2], w[3]}
	case 0:
		return [2]Subdomain{w[4], w[5]}
	}
	panic(fmt.Sprintf("grid: bad dimension %d", dim))
}

// InnerHaloToGPU returns the number of points the CPU sends the GPU each
// step: the shell layer of width halo immediately surrounding the GPU block,
// which the GPU stencil reads as its halo.
func (b BoxSplit) InnerHaloToGPU(halo int) int {
	in := b.Inner().Size
	outer := Dims{in.X + 2*halo, in.Y + 2*halo, in.Z + 2*halo}
	return outer.Volume() - in.Volume()
}

// InnerHaloFromGPU returns the number of points the GPU sends the CPU each
// step: the outermost layer (width halo) of the GPU block, which the CPU
// stencil reads when computing the shell.
func (b BoxSplit) InnerHaloFromGPU(halo int) int {
	in := b.Inner().Size
	core := Dims{in.X - 2*halo, in.Y - 2*halo, in.Z - 2*halo}
	if core.X < 0 || core.Y < 0 || core.Z < 0 {
		return in.Volume()
	}
	return in.Volume() - core.Volume()
}
