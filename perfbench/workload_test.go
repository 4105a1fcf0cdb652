package main

import (
	"bytes"
	"testing"

	"lamb"
	"lamb/internal/engine"
)

// sequence renders the first n requests of a workload as one byte
// stream: path and body of each, in order.
func sequence(t *testing.T, name string, seed uint64, n int) []byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		r := w.Request(i)
		b.WriteString(r.Path)
		b.WriteByte(' ')
		b.Write(r.Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameRequestSequence(t *testing.T) {
	for _, name := range workloadNames {
		a, b := sequence(t, name, 7, 300), sequence(t, name, 7, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different request sequences", name)
		}
		if c := sequence(t, name, 8, 300); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same request sequence", name)
		}
	}
}

func TestGeneratedRequestsAreValid(t *testing.T) {
	x := &expressions{}
	for _, name := range workloadNames {
		w, err := newWorkload(name, 11)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[kind]int{}
		for i := 0; i < 200; i++ {
			r := w.Request(i)
			kinds[r.Kind]++
			for _, q := range r.Queries {
				if _, err := x.algorithms(q); err != nil {
					t.Fatalf("%s request %d: %v", name, i, err)
				}
			}
			if fb := r.Feedback; fb != nil {
				fs, err := x.flops(queryOf(fb.Expr, fb.Instance))
				if err != nil || fb.Algorithm < 1 || fb.Algorithm > len(fs.flops) || !(fb.Seconds > 0) {
					t.Fatalf("%s request %d: bad feedback %+v (%v)", name, i, *fb, err)
				}
			}
		}
		if name == "query-routed-adaptive" && (kinds[kindFeedback] == 0 || kinds[kindQuery] == 0) {
			t.Errorf("%s: request kinds %v, want queries and feedback", name, kinds)
		}
	}
}

// TestQueryMinFlopsWorkingSetExceedsBindCache checks the property the
// workload exists for: it touches more distinct instances than the
// serve's bind LRU holds, while its popular head repeats.
func TestQueryMinFlopsWorkingSetExceedsBindCache(t *testing.T) {
	w, err := newWorkload("query-minflops", 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < 20000; i++ {
		seen[string(w.Request(i).Body)]++
	}
	top := 0
	for _, n := range seen {
		top = max(top, n)
	}
	if len(seen) <= 512 || top < 100 {
		t.Errorf("%d distinct instances (want > 512), hottest repeated %d times (want >= 100)", len(seen), top)
	}
}

func queryOf(name string, inst lamb.Instance) engine.Query {
	return engine.Query{Expr: name, Instance: inst}
}
