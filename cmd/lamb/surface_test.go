package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lamb/internal/engine"
	"lamb/internal/httpjson"
)

// surfaces returns the two HTTP servers — serve over an engine, and a
// router whose one backend is that same serve — for tests that pin what
// they share.
func surfaces(t *testing.T) map[string]http.Handler {
	t.Helper()
	serve := serveMux(engine.New(engine.Config{}))
	backend := httptest.NewServer(serve)
	t.Cleanup(backend.Close)
	return map[string]http.Handler{
		"serve": serve,
		"route": chaosRouter(t, backend.URL).Handler(),
	}
}

func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

// TestOneVersionedSurface: both servers answer only under /api/v1; the
// unversioned /api/ paths are gone.
func TestOneVersionedSurface(t *testing.T) {
	const q = `{"expr":"aatb","instance":[80,514,768]}`
	for name, h := range surfaces(t) {
		for _, c := range []struct {
			method, path string
			want         int
		}{
			{http.MethodPost, "/api/query", http.StatusNotFound},
			{http.MethodGet, "/api/stats", http.StatusNotFound},
			{http.MethodPost, "/api/v1/query", http.StatusOK},
			{http.MethodGet, "/api/v1/stats", http.StatusOK},
		} {
			if w := do(h, c.method, c.path, q); w.Code != c.want {
				t.Errorf("%s: %s %s = %d, want %d: %s", name, c.method, c.path, w.Code, c.want, w.Body)
			}
		}
	}
}

// TestServeAndRouteRejectAlike: both servers reply with the same status
// and the same {"error": ...} body to an oversized body, malformed JSON,
// and a batch over the query cap.
func TestServeAndRouteRejectAlike(t *testing.T) {
	oversized := `{"expr":"` + strings.Repeat("a", httpjson.MaxBodyBytes) + `"}`
	queries := make([]engine.Query, httpjson.MaxBatchQueries+1)
	for i := range queries {
		queries[i] = engine.Query{Expr: "aatb", Instance: []int{8, 8, 8}}
	}
	overCap, err := json.Marshal(batchRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	hs := surfaces(t)
	for _, c := range []struct {
		name, path, body string
		want             int
	}{
		{"oversized body", "/api/v1/query", oversized, http.StatusRequestEntityTooLarge},
		{"malformed query", "/api/v1/query", "{nope", http.StatusBadRequest},
		{"malformed batch", "/api/v1/batch", "{nope", http.StatusBadRequest},
		{"batch over the cap", "/api/v1/batch", string(overCap), http.StatusBadRequest},
	} {
		bodies := map[string][]byte{}
		for name, h := range hs {
			w := do(h, http.MethodPost, c.path, c.body)
			if w.Code != c.want {
				t.Errorf("%s: %s = %d, want %d: %s", c.name, name, w.Code, c.want, w.Body)
			}
			var e httpjson.ErrorBody
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("%s: %s body is not an error reply: %s", c.name, name, w.Body)
			}
			bodies[name] = w.Body.Bytes()
		}
		if !bytes.Equal(bodies["serve"], bodies["route"]) {
			t.Errorf("%s: serve replied %s, route %s", c.name, bodies["serve"], bodies["route"])
		}
	}
}
