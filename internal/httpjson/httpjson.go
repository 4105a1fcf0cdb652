// Package httpjson is the request/response layer `lamb serve` and
// `lamb route` share: the request-body cap, compact JSON replies and the
// {"error": ...} body, the timeout_ms request context, the mapping from
// engine errors to statuses, and the batch-size cap. Defining each once
// keeps the two servers' error policy identical.
package httpjson

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

// MaxBodyBytes caps request bodies and relayed responses: queries are a
// few hundred bytes, batches a few thousand per entry — 4 MiB is orders
// of magnitude of headroom while keeping a hostile body from buffering
// unbounded.
const MaxBodyBytes = 4 << 20

// MaxBatchQueries caps one batch request. A larger workload splits into
// multiple batches; an unbounded one would let a single request
// monopolise the engine and defeat the in-flight admission bound.
const MaxBatchQueries = 1024

// ErrorBody is the body of every failed reply, and of a failed item
// inside a batch reply.
type ErrorBody struct {
	Error string `json:"error"`
}

// Write replies with a JSON body and status. Bodies are compact —
// records on the hot query/batch path do not pay for indentation — and
// encoding failures (usually a disconnected client) are logged
// rate-limited, never silently swallowed.
func Write(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logEncodeError(err)
	}
}

// Error replies with status and an ErrorBody.
func Error(w http.ResponseWriter, status int, err error) {
	Write(w, status, ErrorBody{Error: err.Error()})
}

// EngineError replies to a failed query: deadline and cancellation are
// 504 (the request ran out of time, not a bad request), everything else
// is the caller's 400.
func EngineError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		Error(w, http.StatusGatewayTimeout, err)
		return
	}
	Error(w, http.StatusBadRequest, err)
}

// Body returns r's body capped at MaxBodyBytes.
func Body(w http.ResponseWriter, r *http.Request) io.Reader {
	return http.MaxBytesReader(w, r.Body, MaxBodyBytes)
}

// BadBody replies to a request body that could not be read or parsed:
// 413 when it exceeded MaxBodyBytes, 400 otherwise.
func BadBody(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		Error(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	Error(w, http.StatusBadRequest, err)
}

// Decode parses the capped request body into v, rejecting unknown
// fields. On failure it has replied (BadBody) and reports false.
func Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(Body(w, r))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		BadBody(w, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// ReadBody reads the capped request body for relaying. On failure it
// has replied (BadBody) and reports false.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(Body(w, r))
	if err != nil {
		BadBody(w, fmt.Errorf("bad request body: %w", err))
		return nil, false
	}
	return body, true
}

// CheckBatch replies 400 and reports false when a batch of n queries
// exceeds MaxBatchQueries.
func CheckBatch(w http.ResponseWriter, n int) bool {
	if n > MaxBatchQueries {
		Error(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d queries exceeds the %d-query limit; split it", n, MaxBatchQueries))
		return false
	}
	return true
}

// Context derives a request's context: r's own (cancelled when the
// client disconnects) bounded by timeoutMs when positive, else by def
// when positive.
func Context(r *http.Request, timeoutMs int, def time.Duration) (context.Context, context.CancelFunc) {
	d := def
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return r.Context(), func() {}
}

// encodeLog rate-limits response-encoding failure logs: encoding
// typically fails because the client went away mid-write, and a
// disconnect storm must not turn into a log storm.
var encodeLog struct {
	mu      sync.Mutex
	last    time.Time
	dropped uint64
}

func logEncodeError(err error) {
	encodeLog.mu.Lock()
	defer encodeLog.mu.Unlock()
	now := time.Now()
	if now.Sub(encodeLog.last) < time.Second {
		encodeLog.dropped++
		return
	}
	suffix := ""
	if encodeLog.dropped > 0 {
		suffix = fmt.Sprintf(" (%d similar errors suppressed)", encodeLog.dropped)
		encodeLog.dropped = 0
	}
	encodeLog.last = now
	fmt.Fprintf(os.Stderr, "lamb: response encoding failed: %v%s\n", err, suffix)
}
