package main

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// spanCtxKey carries the enclosing span into HTTP requests, so the
// wire span of a request nests under the sweep or read that sent it.
type spanCtxKey struct{}

type spanRef struct{ run, id int64 }

func withSpan(ctx context.Context, run, id int64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanRef{run, id})
}

// wireTimer is the http.RoundTripper a traced run hands pkg/cluster
// and pkg/client: it times every request from send to the end of its
// body, per endpoint, and records a wire span for each.
type wireTimer struct {
	base http.RoundTripper
	rec  *recorder

	mu         sync.Mutex
	rpcMS      map[string][]float64 // endpoint -> send to full body
	firstEvent []float64            // POST /v1/suite: send to first body byte
}

func newWireTimer(rec *recorder) *wireTimer {
	return &wireTimer{base: http.DefaultTransport, rec: rec, rpcMS: map[string][]float64{}}
}

func endpoint(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/suite":
		return "suite"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/runs":
		return "runs"
	}
	return "other"
}

// RoundTrip implements http.RoundTripper.
func (w *wireTimer) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := w.base.RoundTrip(r)
	b := &timedBody{w: w, ep: endpoint(r), start: start}
	b.parent, _ = r.Context().Value(spanCtxKey{}).(spanRef)
	if err != nil {
		b.finish()
		return nil, err
	}
	b.rc = resp.Body
	resp.Body = b
	return resp, nil
}

// timedBody ends its request's wire span at EOF or Close, whichever
// comes first.
type timedBody struct {
	rc     io.ReadCloser
	w      *wireTimer
	ep     string
	parent spanRef
	start  time.Time
	first  time.Time
	once   sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if n > 0 && b.first.IsZero() {
		b.first = time.Now()
	}
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.rc.Close()
	b.finish()
	return err
}

func (b *timedBody) finish() {
	b.once.Do(func() {
		end := time.Now()
		b.w.rec.interval(b.parent.run, b.parent.id, "wire."+b.ep, "", b.start, end)
		b.w.mu.Lock()
		defer b.w.mu.Unlock()
		b.w.rpcMS[b.ep] = append(b.w.rpcMS[b.ep], ms(end.Sub(b.start)))
		if b.ep == "suite" && !b.first.IsZero() {
			b.w.firstEvent = append(b.w.firstEvent, ms(b.first.Sub(b.start)))
		}
	})
}

// report sets the wire and first-event metrics.
func (w *wireTimer) report(res *result) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, ep := range []string{"suite", "runs"} {
		res.set("wire."+ep+".rpc_ms_p50", quantile(w.rpcMS[ep], 0.50))
		res.set("wire."+ep+".rpc_ms_p99", quantile(w.rpcMS[ep], 0.99))
	}
	res.set("server.suite_first_event_ms", median(w.firstEvent))
}
