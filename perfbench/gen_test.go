package main

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/service"
)

func encodeItems(t *testing.T, its []item) []string {
	t.Helper()
	out := make([]string, len(its))
	for i, it := range its {
		b, err := json.Marshal(it.req)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = it.class.String() + " " + it.due.String() + " " + string(b)
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	draw := func(seed int64) []string {
		g := newServeGen(seed)
		its := append([]item(nil), g.hot...)
		its = append(its, g.schedule(serveRate, 2*time.Second)...)
		for i := 0; i < 500; i++ {
			its = append(its, g.next())
		}
		return encodeItems(t, its)
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated two different request sequences")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("seeds 7 and 8 generated the same request sequence")
	}
	nus := func(seed int64) []float64 {
		s := newNuSource(newRand(seed, streamSolve))
		return []float64{s.next(), s.next(), s.next()}
	}
	if !reflect.DeepEqual(nus(3), nus(3)) {
		t.Fatal("solve ν draws differ for one seed")
	}
}

func TestFreshKeysNeverCollide(t *testing.T) {
	g := newServeGen(11)
	seen := map[string]class{}
	for _, it := range g.hot {
		if _, dup := seen[it.key]; dup {
			t.Fatalf("hot set repeats key %s", it.key)
		}
		seen[it.key] = classHot
	}
	hot := len(seen)
	counts := map[class]int{}
	for i := 0; i < 20000; i++ {
		it := g.next()
		counts[it.class]++
		if it.key != it.req.CacheKey() {
			t.Fatalf("item key %s is not the request's cache key %s", it.key, it.req.CacheKey())
		}
		if it.class == classHot {
			if seen[it.key] != classHot {
				t.Fatalf("hot item %s is not in the hot set", it.key)
			}
			continue
		}
		if c, dup := seen[it.key]; dup {
			t.Fatalf("%s request %d reuses key %s of a %s request", it.class, i, it.key, c)
		}
		seen[it.key] = it.class
	}
	if len(seen) == hot {
		t.Fatal("no fresh requests drawn")
	}
	for c, want := range map[class]float64{classHot: shareHot, classFresh: shareFresh, classSim: 1 - shareHot - shareFresh} {
		if got := float64(counts[c]) / 20000; got < want*0.9 || got > want*1.1 {
			t.Errorf("%s share %.3f, want about %.2f", c, got, want)
		}
	}
}

func TestGeneratedPredictsAreAnswerable(t *testing.T) {
	g := newServeGen(5)
	for i := 0; i < 2000; i++ {
		it := g.next()
		if it.class == classSim {
			if err := it.req.Validate(service.DefaultLimits()); err != nil {
				t.Fatalf("simulate %d invalid: %v", i, err)
			}
			continue
		}
		if _, err := expectedPredict(it.req.Predict); err != nil {
			t.Fatalf("predict %+v: %v", *it.req.Predict, err)
		}
	}
}
