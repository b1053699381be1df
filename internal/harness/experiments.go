package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/loc"
	"repro/internal/machine"
	"repro/internal/stats"
)

// All returns every experiment: the paper's tables and figures in order,
// followed by the beyond-the-paper extensions of Section VI's conjectures.
func All() []Experiment {
	exps := paperExperiments()
	return append(exps, Extensions()...)
}

func paperExperiments() []Experiment {
	return []Experiment{
		{
			ID:       "table1",
			Title:    "Stencil coefficients a_ijk",
			PaperRef: "Table I",
			Expect:   "27 coefficients; tensor product of 1-D Lax-Wendroff stencils; sum = 1",
			Run: func(w io.Writer) error {
				t := TableI()
				t.Render(w)
				return nil
			},
		},
		{
			ID:       "table2",
			Title:    "Technical details of tested computers",
			PaperRef: "Table II",
			Expect:   "four machines: JaguarPF, Hopper II, Lens (C1060), Yona (C2050)",
			Run: func(w io.Writer) error {
				t := TableII()
				t.Render(w)
				return nil
			},
		},
		{
			ID:       "fig2",
			Title:    "Lines of code per implementation",
			PaperRef: "Figure 2",
			Expect:   "MPI adds 57-73%; single GPU +6%; full overlap exactly 4x single task (860 vs 215)",
			Run:      runFig2,
		},
		{
			ID:       "fig3",
			Title:    "JaguarPF: best performance of each implementation",
			PaperRef: "Figure 3",
			Expect:   "nonblocking slightly ahead below ~4000 cores; bulk ahead at 6000+; threaded overlap lags",
			Run: func(w io.Writer) error {
				s := BestPerImpl(machine.JaguarPF(), CPUKinds())
				renderFigure(w, "cores", s, "JaguarPF GF vs cores")
				return nil
			},
		},
		{
			ID:       "fig4",
			Title:    "Hopper II: best performance of each implementation",
			PaperRef: "Figure 4",
			Expect:   "same shape as Fig 3 with the crossover an order of magnitude later",
			Run: func(w io.Writer) error {
				s := BestPerImpl(machine.HopperII(), CPUKinds())
				renderFigure(w, "cores", s, "Hopper II GF vs cores")
				return nil
			},
		},
		{
			ID:       "fig5",
			Title:    "JaguarPF: bulk-synchronous, threads per task sweep",
			PaperRef: "Figure 5",
			Expect:   "best threads/task generally increases with core count",
			Run: func(w io.Writer) error {
				s := ThreadSweep(machine.JaguarPF())
				renderFigure(w, "cores", s, "JaguarPF bulk-sync GF vs cores by threads/task")
				return nil
			},
		},
		{
			ID:       "fig6",
			Title:    "Hopper II: bulk-synchronous, threads per task sweep",
			PaperRef: "Figure 6",
			Expect:   "varies more than JaguarPF; 24 threads/task never optimal",
			Run: func(w io.Writer) error {
				s := ThreadSweep(machine.HopperII())
				renderFigure(w, "cores", s, "Hopper II bulk-sync GF vs cores by threads/task")
				return nil
			},
		},
		{
			ID:       "fig7",
			Title:    "Lens: GPU-resident performance by block size",
			PaperRef: "Figure 7",
			Expect:   "x = 32 (warp size) best; paper's best block 32x11",
			Run: func(w io.Writer) error {
				s := BlockSweep(machine.Lens().GPU.Props)
				renderFigure(w, "block y", s, "Lens (Tesla C1060) GF vs block size")
				return reportBest(w, s)
			},
		},
		{
			ID:       "fig8",
			Title:    "Yona: GPU-resident performance by block size",
			PaperRef: "Figure 8",
			Expect:   "x = 32 best; paper's best block 32x8 at 86 GF",
			Run: func(w io.Writer) error {
				s := BlockSweep(machine.Yona().GPU.Props)
				renderFigure(w, "block y", s, "Yona (Tesla C2050) GF vs block size")
				return reportBest(w, s)
			},
		},
		{
			ID:       "fig9",
			Title:    "Lens: best performance of each implementation (1 GPU / 16 cores)",
			PaperRef: "Figure 9",
			Expect:   "GPU impls gain greatly from overlap; best CPU-GPU exceeds best-CPU + best-GPU",
			Run: func(w io.Writer) error {
				s := BestPerImpl(machine.Lens(), ClusterKinds())
				renderFigure(w, "cores", s, "Lens GF vs cores")
				return nil
			},
		},
		{
			ID:       "fig10",
			Title:    "Yona: best performance of each implementation (1 GPU / 12 cores)",
			PaperRef: "Figure 10",
			Expect:   "best CPU-GPU more than 4x best CPU-only",
			Run: func(w io.Writer) error {
				s := BestPerImpl(machine.Yona(), ClusterKinds())
				renderFigure(w, "cores", s, "Yona GF vs cores")
				return nil
			},
		},
		{
			ID:       "fig11",
			Title:    "Lens: CPU-GPU overlap by threads/task and box thickness",
			PaperRef: "Figure 11",
			Expect:   "few tasks per node best; best box width decreases with core count",
			Run: func(w io.Writer) error {
				s := HybridCombos(machine.Lens())
				renderFigure(w, "cores", s, "Lens hybrid-overlap GF vs cores by (threads, width)")
				return nil
			},
		},
		{
			ID:       "fig12",
			Title:    "Yona: CPU-GPU overlap by threads/task and box thickness",
			PaperRef: "Figure 12",
			Expect:   "best thickness often just 1 — load balance is not the key feature",
			Run: func(w io.Writer) error {
				s := HybridCombos(machine.Yona())
				renderFigure(w, "cores", s, "Yona hybrid-overlap GF vs cores by (threads, width)")
				return nil
			},
		},
		{
			ID:       "sectionVE",
			Title:    "Yona single-node anchors",
			PaperRef: "Section V-E",
			Expect:   "GPU-resident 86, F 24, G 35, I 82 GF",
			Run: func(w io.Writer) error {
				t, err := SectionVE()
				if err != nil {
					return err
				}
				t.Render(w)
				return nil
			},
		},
		{
			ID:       "verify",
			Title:    "Functional verification of all nine implementations",
			PaperRef: "Section IV-A (norm recording)",
			Expect:   "all implementations agree with the analytic solution and conserve mass",
			Run: func(w io.Writer) error {
				t, err := Verify(20, 4, 4)
				if err != nil {
					return err
				}
				t.Render(w)
				return nil
			},
		},
	}
}

// Data returns the raw series behind a figure experiment, for export or
// plotting with external tools; ok is false for the table experiments.
// The second return is the x-axis name.
func Data(id string) (series []stats.Series, xName string, ok bool) {
	switch id {
	case "fig3":
		return BestPerImpl(machine.JaguarPF(), CPUKinds()), "cores", true
	case "fig4":
		return BestPerImpl(machine.HopperII(), CPUKinds()), "cores", true
	case "fig5":
		return ThreadSweep(machine.JaguarPF()), "cores", true
	case "fig6":
		return ThreadSweep(machine.HopperII()), "cores", true
	case "fig7":
		return BlockSweep(machine.Lens().GPU.Props), "blocky", true
	case "fig8":
		return BlockSweep(machine.Yona().GPU.Props), "blocky", true
	case "fig9":
		return BestPerImpl(machine.Lens(), ClusterKinds()), "cores", true
	case "fig10":
		return BestPerImpl(machine.Yona(), ClusterKinds()), "cores", true
	case "fig11":
		return HybridCombos(machine.Lens()), "cores", true
	case "fig12":
		return HybridCombos(machine.Yona()), "cores", true
	}
	return nil, "", false
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

func runFig2(w io.Writer) error {
	rows, err := loc.Figure2()
	if err != nil {
		return err
	}
	t := stats.Table{Header: []string{"implementation", "section", "paper Fortran LoC", "stated", "this repo Go LoC"}}
	for _, r := range rows {
		exact := "interpolated"
		if r.PaperExact {
			exact = "stated"
		}
		t.AddRow(r.Kind.String(), r.Kind.Section(), fmt.Sprint(r.Paper), exact, fmt.Sprint(r.Ours))
	}
	t.Render(w)
	single, _ := loc.PaperLoC(core.SingleTask)
	full, _ := loc.PaperLoC(core.HybridOverlap)
	fmt.Fprintf(w, "\npaper ratio full-overlap / single-task: %.2fx (text: exactly 4x, 860 vs 215)\n",
		float64(full)/float64(single))
	return nil
}

func reportBest(w io.Writer, series []stats.Series) error {
	bestGF, bestLabel, bestY := 0.0, "", 0.0
	for _, s := range series {
		if gf, i := s.Max(); i >= 0 && gf > bestGF {
			bestGF, bestLabel, bestY = gf, s.Label, s.X[i]
		}
	}
	fmt.Fprintf(w, "\nbest block: %s, y=%s -> %.1f GF\n", bestLabel, stats.FormatNum(bestY), bestGF)
	return nil
}
