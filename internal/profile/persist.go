// Profile persistence: a versioned JSON schema that makes kernel
// performance profiles a durable artifact rather than a per-invocation
// throwaway. `lamb profile` measures the kernel grid once and writes a
// store; `lamb serve -profile` and `lamb select -profile` load it and
// answer profile-backed queries (min-predicted, adaptive) without any
// serve-time measurement.
//
// The file format is one JSON object:
//
//	{
//	  "schema_version": 1,
//	  "machine": { ... Meta: backend, host, grid, reps, peak ... },
//	  "profiles": [
//	    {"kernel": "gemm", "grid_m": [...], "grid_n": [...],
//	     "grid_k": [...], "rate": [[[...]]]},
//	    ...
//	  ]
//	}
//
// Rates are serialised as float64 through encoding/json, whose shortest
// round-trip representation is exact: a loaded store predicts bit-for-bit
// identically to the freshly measured one (pinned by persist_test.go).
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"lamb/internal/kernels"
)

// SchemaVersion is the version of the profile file format this package
// writes and accepts. Bump it on incompatible schema changes; Decode
// rejects mismatching files rather than misreading them.
const SchemaVersion = 1

// Meta records the provenance of a measured profile set: what machine
// and backend produced it, under which protocol. Serving surfaces it
// through /api/v1/stats and query records so a consumer can tell which
// measurement a prediction came from.
type Meta struct {
	// CreatedAt is the RFC 3339 measurement timestamp.
	CreatedAt string `json:"created_at,omitempty"`
	// Backend names the executor that was profiled (exec.Executor.Name).
	Backend string `json:"backend,omitempty"`
	// Hostname, GOOS, GOARCH, NumCPU, and GoVersion identify the host.
	Hostname  string `json:"hostname,omitempty"`
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`
	NumCPU    int    `json:"num_cpu,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	// Reps is the timer repetition count the measurement used.
	Reps int `json:"reps,omitempty"`
	// GridPoints is the per-dimension grid resolution.
	GridPoints int `json:"grid_points,omitempty"`
	// PeakFlops is the backend's peak FLOP rate at measurement time.
	PeakFlops float64 `json:"peak_flops,omitempty"`
	// Source is the path the set was loaded from. It is set by ReadFile,
	// not serialised: a copied file keeps working.
	Source string `json:"-"`
}

// HostMeta returns a Meta describing the current host; callers fill in
// the measurement-specific fields (Backend, Reps, GridPoints, ...).
func HostMeta() Meta {
	host, _ := os.Hostname()
	return Meta{
		Hostname:  host,
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

// ID is the short provenance tag query records carry: the source path
// when the set was loaded from a file, otherwise backend@host (or
// whichever of the two is known).
func (m Meta) ID() string {
	switch {
	case m.Source != "":
		return m.Source
	case m.Backend != "" && m.Hostname != "":
		return m.Backend + "@" + m.Hostname
	case m.Backend != "":
		return m.Backend
	case m.Hostname != "":
		return m.Hostname
	default:
		return "in-memory"
	}
}

// envelope is the serialised file.
type envelope struct {
	SchemaVersion int           `json:"schema_version"`
	Meta          Meta          `json:"machine"`
	Profiles      []fileProfile `json:"profiles"`
}

// fileProfile is one kernel's serialised surface.
type fileProfile struct {
	Kernel string        `json:"kernel"`
	GridM  []int         `json:"grid_m"`
	GridN  []int         `json:"grid_n"`
	GridK  []int         `json:"grid_k"`
	Rate   [][][]float64 `json:"rate"`
}

// Encode writes the set and its provenance as schema-versioned JSON.
// The set must cover every kernel kind — Decode refuses partial stores,
// so writing one would produce an artifact that fails only at load
// time, possibly on a different machine.
func Encode(w io.Writer, s *Set, meta Meta) error {
	if missing := s.missingKinds(); len(missing) > 0 {
		return fmt.Errorf("profile: cannot encode a partial set, missing kernel profiles: %s",
			strings.Join(missing, ", "))
	}
	env := envelope{SchemaVersion: SchemaVersion, Meta: meta}
	for kind := kernels.Kind(0); int(kind) < kernels.NumKinds; kind++ {
		p := s.profiles[kind]
		env.Profiles = append(env.Profiles, fileProfile{
			Kernel: kind.String(),
			GridM:  p.GridM, GridN: p.GridN, GridK: p.GridK,
			Rate: p.rate,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(env)
}

// Decode reads a schema-versioned profile store. Files written by a
// different schema version are rejected with a descriptive error; the
// profile data is re-validated on load (grids sorted, rate table shaped,
// rates finite), so a hand-edited file cannot smuggle in a surface the
// interpolator would mispredict on.
func Decode(r io.Reader) (*Set, Meta, error) {
	var env envelope
	dec := json.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return nil, Meta{}, fmt.Errorf("profile: decoding store: %w", err)
	}
	if env.SchemaVersion != SchemaVersion {
		return nil, Meta{}, fmt.Errorf("profile: store has schema version %d, this build reads %d",
			env.SchemaVersion, SchemaVersion)
	}
	s := NewSet()
	for _, fp := range env.Profiles {
		kind, err := kernels.ParseKind(fp.Kernel)
		if err != nil {
			return nil, Meta{}, fmt.Errorf("profile: decoding store: %w", err)
		}
		if s.profiles[kind] != nil {
			return nil, Meta{}, fmt.Errorf("profile: store has duplicate %v profile", kind)
		}
		p, err := New(kind, fp.GridM, fp.GridN, fp.GridK, fp.Rate)
		if err != nil {
			return nil, Meta{}, err
		}
		s.Put(p)
	}
	// Every kind must be covered: Set.PredictCall has no fallback for a
	// missing profile, and every store this package writes is complete —
	// a partial one is a truncated or hand-edited file.
	if missing := s.missingKinds(); len(missing) > 0 {
		return nil, Meta{}, fmt.Errorf("profile: store is missing kernel profiles: %s", strings.Join(missing, ", "))
	}
	return s, env.Meta, nil
}

// missingKinds lists the kernel kinds the set has no profile for.
func (s *Set) missingKinds() []string {
	var missing []string
	for kind := kernels.Kind(0); int(kind) < kernels.NumKinds; kind++ {
		if s.profiles[kind] == nil {
			missing = append(missing, kind.String())
		}
	}
	return missing
}

// WriteFile saves the set to path (atomically via a temp file in the
// same directory, so a crashed writer never leaves a truncated store a
// later serve would choke on).
func WriteFile(path string, s *Set, meta Meta) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".profile-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := Encode(tmp, s, meta); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp makes the file 0600; the store is a shareable artifact
	// (written by one user, served by another, copied between machines),
	// so widen to the conventional 0644 before the rename publishes it.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile loads a profile store, recording the path as Meta.Source.
func ReadFile(path string) (*Set, Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Meta{}, err
	}
	defer f.Close()
	s, meta, err := Decode(f)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("%s: %w", path, err)
	}
	meta.Source = path
	return s, meta, nil
}
