package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"lamb/internal/engine"
	"lamb/internal/outcomes"
)

// TestServeOutcomesExportAndMerge drives the cross-process gossip loop
// over HTTP: feedback on backend A, GET /api/v1/outcomes from A, POST it
// to B's /api/v1/admin/merge, and B's adaptive selection flips to what A
// learned. Re-posting is idempotent.
func TestServeOutcomesExportAndMerge(t *testing.T) {
	srvA, _ := newProfiledTestServer(t)
	srvB, engB := newProfiledTestServer(t)
	q := engine.Query{Expr: "aatb", Instance: []int{80, 514, 768}, Strategy: "adaptive"}

	resp, body := postJSON(t, srvB.URL+"/api/v1/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline query status %d: %s", resp.StatusCode, body)
	}
	var base engine.Record
	if err := json.Unmarshal(body, &base); err != nil {
		t.Fatal(err)
	}

	// Teach A that B's current favourite is slow, everything else fast.
	for rep := 0; rep < 3; rep++ {
		for alg := 1; alg <= base.NumAlgorithms; alg++ {
			sec := 1e-6
			if alg == base.Selected.Index {
				sec = 10.0
			}
			fb := engine.Feedback{Expr: "aatb", Instance: []int{80, 514, 768}, Algorithm: alg, Seconds: sec}
			if resp, body := postJSON(t, srvA.URL+"/api/v1/feedback", fb); resp.StatusCode != http.StatusOK {
				t.Fatalf("feedback status %d: %s", resp.StatusCode, body)
			}
		}
	}

	resp, err := http.Get(srvA.URL + "/api/v1/outcomes")
	if err != nil {
		t.Fatal(err)
	}
	raw, snap := new(bytes.Buffer), new(outcomes.Snapshot)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outcomes export status %d: %s", resp.StatusCode, raw.Bytes())
	}
	if err := json.Unmarshal(raw.Bytes(), snap); err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("exported snapshot invalid: %v", err)
	}
	if len(snap.Records) != 1 || snap.Profile != "test-profile.json" {
		t.Fatalf("exported snapshot %+v", snap)
	}

	post := func(url string) (int, string) {
		resp, err := http.Post(url, "application/json", bytes.NewReader(raw.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		return resp.StatusCode, out.String()
	}
	status, body2 := post(srvB.URL + "/api/v1/admin/merge?source=" + srvA.URL + "&scale=0.5")
	if status != http.StatusOK {
		t.Fatalf("merge status %d: %s", status, body2)
	}
	var counts map[string]int
	if err := json.Unmarshal([]byte(body2), &counts); err != nil {
		t.Fatal(err)
	}
	if counts["merged"] != base.NumAlgorithms || counts["skipped"] != 0 {
		t.Fatalf("merge counts %v, want merged=%d", counts, base.NumAlgorithms)
	}

	resp, body = postJSON(t, srvB.URL+"/api/v1/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-merge query status %d: %s", resp.StatusCode, body)
	}
	var after engine.Record
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Selected.Index == base.Selected.Index {
		t.Fatalf("merged evidence did not steer B away from algorithm %d", base.Selected.Index)
	}

	// Idempotency: the retry changes nothing but the request counter.
	post(srvB.URL + "/api/v1/admin/merge?source=" + srvA.URL + "&scale=0.5")
	s := engB.Stats()
	if s.MergeRequests != 2 || s.MergedOutcomes != uint64(2*base.NumAlgorithms) {
		t.Fatalf("merge counters %+v", s)
	}
	// B's own export must not re-offer A's evidence (anti-echo).
	resp, err = http.Get(srvB.URL + "/api/v1/outcomes")
	if err != nil {
		t.Fatal(err)
	}
	var local outcomes.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&local); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(local.Records) != 0 {
		t.Fatalf("B's local export leaked merged evidence: %+v", local.Records)
	}
}

// TestServeMergeRejectsBadRequests pins the merge endpoint's input
// validation: no source, out-of-range scale, and garbage bodies are
// 400s that leave the store untouched.
func TestServeMergeRejectsBadRequests(t *testing.T) {
	srv, eng := newProfiledTestServer(t)
	good := `{"schema_version":1,"created_unix":1,"records":[]}`
	cases := []struct {
		name, url, body string
	}{
		{"no source", "/api/v1/admin/merge", good},
		{"zero scale", "/api/v1/admin/merge?source=x&scale=0", good},
		{"big scale", "/api/v1/admin/merge?source=x&scale=1.5", good},
		{"nan scale", "/api/v1/admin/merge?source=x&scale=nan", good},
		{"garbage body", "/api/v1/admin/merge?source=x", "{nope"},
		{"wrong schema", "/api/v1/admin/merge?source=x", `{"schema_version":99,"created_unix":1,"records":[]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if s := eng.Stats(); s.MergeRequests != 0 {
		t.Fatalf("rejected merges still counted: %+v", s)
	}
}
