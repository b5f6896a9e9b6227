package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// retryAfterNow is the fixed clock retryAfterCases are relative to.
var retryAfterNow = time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)

// retryAfterCases are header values with the wait and ok flag
// parseRetryAfter must return at retryAfterNow.
var retryAfterCases = []struct {
	name string
	in   string
	want time.Duration
	ok   bool
}{
	{"delta seconds", "5", 5 * time.Second, true},
	{"zero", "0", 0, true},
	{"negative clamped", "-3", 0, true},
	{"padded delta", "  17 ", 17 * time.Second, true},
	{"http-date ahead", retryAfterNow.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
	{"http-date past clamped", retryAfterNow.Add(-time.Hour).Format(http.TimeFormat), 0, true},
	{"rfc850 date", retryAfterNow.Add(30 * time.Second).Format("Monday, 02-Jan-06 15:04:05 GMT"), 30 * time.Second, true},
	{"huge delta saturates", "10000000000", maxDuration - maxDuration%time.Second, true},
	{"garbage", "soon", 0, false},
	{"empty", "", 0, false},
	{"fractional rejected", "1.5", 0, false},
}

func TestParseRetryAfter(t *testing.T) {
	for _, c := range retryAfterCases {
		t.Run(c.name, func(t *testing.T) {
			got, ok := parseRetryAfter(c.in, retryAfterNow)
			if ok != c.ok || got != c.want {
				t.Fatalf("parseRetryAfter(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
			}
		})
	}
}

// FuzzParseRetryAfter feeds arbitrary header values to ParseRetryAfter:
// it never panics and never returns a negative wait.
func FuzzParseRetryAfter(f *testing.F) {
	for _, c := range retryAfterCases {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if d, _ := ParseRetryAfter(v); d < 0 {
			t.Fatalf("ParseRetryAfter(%q) = %v, want >= 0", v, d)
		}
	})
}

// TestRetryAfterHTTPDateOnWire pins the end-to-end path: a 429 with an
// HTTP-date Retry-After must surface as a positive, non-garbage
// RetryAfter on the APIError (it was previously dropped as "no hint"),
// and a negative delta must never produce a negative backoff.
func TestRetryAfterHTTPDateOnWire(t *testing.T) {
	headers := make(chan string, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", <-headers)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := New(srv.URL)

	headers <- time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	_, err := c.Run(context.Background(), RunRequest{Benchmark: "gzip"})
	if !IsThrottled(err) {
		t.Fatalf("want throttled APIError, got %v", err)
	}
	ae := err.(*APIError)
	if ae.RetryAfter <= 0 || ae.RetryAfter > 31*time.Second {
		t.Fatalf("HTTP-date Retry-After = %v, want ~30s", ae.RetryAfter)
	}

	headers <- "-10"
	_, err = c.Run(context.Background(), RunRequest{Benchmark: "gzip"})
	if !IsThrottled(err) {
		t.Fatalf("want throttled APIError, got %v", err)
	}
	if ae := err.(*APIError); ae.RetryAfter != 0 {
		t.Fatalf("negative Retry-After = %v, want clamped to 0", ae.RetryAfter)
	}
}
