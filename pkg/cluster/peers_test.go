package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"samielsq/internal/experiments"
	"samielsq/internal/server"
	"samielsq/pkg/client"
)

func peerTestSpec() experiments.RunSpec {
	return experiments.RunSpec{Benchmark: "gzip", Insts: 5_000, Model: experiments.ModelSAMIE}
}

// TestProbeRunPermanentErrorNoQuarantine is the regression test for
// the fabric quarantining every replica it walked when a probe failed
// with a permanent 4xx: the request is the requester's fault, so it
// must fail fast — mirroring do()/RunSpecs — with every replica left
// usable.
func TestProbeRunPermanentErrorNoQuarantine(t *testing.T) {
	badRequest := func() string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, `{"error":"malformed key"}`)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	c, err := New([]string{badRequest(), badRequest()})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, ok, err := c.ProbeRun(context.Background(), "zzz-not-a-key")
	if ok || err == nil {
		t.Fatalf("probe = ok=%v err=%v, want a permanent error", ok, err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("error %v does not surface the 400", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("permanent probe failure took %s; should fail fast", elapsed)
	}
	for _, rep := range c.Replicas() {
		if usable, _ := c.replicaState(rep); !usable {
			t.Errorf("healthy replica %s quarantined over a client error", rep)
		}
	}
}

func TestPeerFetcherFetchesFromWarmSibling(t *testing.T) {
	urlA, batchA, _ := bootReplica(t, 1)
	spec := peerTestSpec()
	want := batchA.Run(spec)
	key := experiments.Key(spec)

	p := NewPeerFetcher([]string{urlA})
	got, ok := p.Fetch(context.Background(), key)
	if !ok {
		t.Fatal("fetch missed a key the sibling holds")
	}
	if got.CPU != want.CPU || *got.Meter != *want.Meter || got.SAMIE != want.SAMIE {
		t.Errorf("peer-fetched result differs from the sibling's")
	}

	// A key nobody holds is a plain miss, not an error.
	if _, ok := p.Fetch(context.Background(), "no-such-key"); ok {
		t.Error("fetch of an unknown key reported a hit")
	}
}

func TestPeerFetcherRejectsInvalidBodies(t *testing.T) {
	spec := peerTestSpec()
	key := experiments.Key(spec)
	want := experiments.Run(spec)

	serve := func(body func(w http.ResponseWriter)) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			body(w)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	cases := map[string]string{
		"build-stamp mismatch": serve(func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(client.RunResponse{
				Key: key, Sim: "some-other-build", CPU: want.CPU, Meter: want.Meter,
			})
		}),
		"key mismatch": serve(func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(client.RunResponse{
				Key: "different-key", Sim: experiments.SimStamp(), CPU: want.CPU, Meter: want.Meter,
			})
		}),
		"meterless": serve(func(w http.ResponseWriter) {
			json.NewEncoder(w).Encode(client.RunResponse{Key: key, Sim: experiments.SimStamp(), CPU: want.CPU})
		}),
		"corrupt": serve(func(w http.ResponseWriter) {
			io.WriteString(w, `{"key": truncated`)
		}),
	}
	for name, url := range cases {
		p := NewPeerFetcher([]string{url})
		if _, ok := p.Fetch(context.Background(), key); ok {
			t.Errorf("%s peer body accepted", name)
		}
	}
}

func TestPeerFetcherTimeoutDegradesToMiss(t *testing.T) {
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(stuck.Close)

	p := NewPeerFetcher([]string{stuck.URL}, WithPeerTimeout(50*time.Millisecond))
	start := time.Now()
	if _, ok := p.Fetch(context.Background(), "any-key"); ok {
		t.Fatal("hung peer reported a hit")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("hung peer held the fetch for %s; the per-probe timeout should bound it", elapsed)
	}
	// A second consecutive timeout trips the peer's breaker (default
	// threshold 2)...
	p.Fetch(context.Background(), "another-key")
	// ...so the next miss skips the dead peer without waiting on it.
	start = time.Now()
	p.Fetch(context.Background(), "third-key")
	if elapsed := time.Since(start); elapsed > 25*time.Millisecond {
		t.Errorf("tripped peer re-probed immediately (fetch took %s)", elapsed)
	}
}

// TestColdReplicaWarmsFromPeer is the tentpole's core flow at the
// library level: a replica with an empty disk cache serves a key its
// sibling executed, installs the artifact locally, and never runs the
// simulation itself.
func TestColdReplicaWarmsFromPeer(t *testing.T) {
	urlA, batchA, _ := bootReplica(t, 1)
	spec := peerTestSpec()
	want := batchA.Run(spec)

	dir := t.TempDir()
	cold, err := experiments.NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	cold.SetPeerStore(NewPeerFetcher([]string{urlA}))

	got, err := cold.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.CPU != want.CPU || *got.Meter != *want.Meter {
		t.Errorf("peer-warmed result differs from the executing replica's")
	}
	if st := cold.Stats(); st.Executed != 0 {
		t.Errorf("cold replica executed %d simulations, want 0", st.Executed)
	}
	ss := cold.StoreStats()
	if ss.Peer.Hits != 1 || ss.PeerInstalls != 1 {
		t.Errorf("peer tier did not account the delivery: %+v", ss)
	}
	// The artifact landed on disk: a fresh batch serves it without the
	// peer.
	reopened, err := experiments.NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if again := reopened.Run(spec); again.CPU != want.CPU {
		t.Errorf("installed artifact does not round-trip")
	}
	if st := reopened.Stats(); st.Executed != 0 {
		t.Errorf("installed artifact re-simulated: %+v", st)
	}
}

// TestRunSpecsPushesPeerSets verifies the coordinator hands every
// replica the rest of the fleet with its shard, and a single-replica
// ring pushes nothing (an empty push must not clear static -peers
// configuration).
func TestRunSpecsPushesPeerSets(t *testing.T) {
	type capture struct {
		mu    sync.Mutex
		peers [][]string
	}
	boot := func(cap *capture) string {
		batch := experiments.NewBatch(1)
		s, err := server.New(server.Config{
			Batch:  batch,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
			PeerAdopt: func(peers []string) {
				cap.mu.Lock()
				cap.peers = append(cap.peers, peers)
				cap.mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	capA, capB := &capture{}, &capture{}
	urlA, urlB := boot(capA), boot(capB)
	c, err := New([]string{urlA, urlB})
	if err != nil {
		t.Fatal(err)
	}
	specs := []experiments.RunSpec{
		{Benchmark: "gzip", Insts: 5_000, Model: experiments.ModelSAMIE},
		{Benchmark: "swim", Insts: 5_000, Model: experiments.ModelSAMIE},
		{Benchmark: "mcf", Insts: 5_000, Model: experiments.ModelSAMIE},
		{Benchmark: "ammp", Insts: 5_000, Model: experiments.ModelSAMIE},
	}
	if _, err := c.RunSpecs(context.Background(), specs, nil); err != nil {
		t.Fatal(err)
	}
	for rep, cap := range map[string]*capture{urlA: capA, urlB: capB} {
		other := urlB
		if rep == urlB {
			other = urlA
		}
		cap.mu.Lock()
		pushes := cap.peers
		cap.mu.Unlock()
		if len(pushes) == 0 {
			// Legitimate: rendezvous may have assigned this replica no
			// specs this round.
			continue
		}
		for _, push := range pushes {
			if len(push) != 1 || push[0] != other {
				t.Errorf("replica %s adopted peers %v, want [%s]", rep, push, other)
			}
		}
	}

	// Single-replica ring: no peers accompany the shard.
	capSolo := &capture{}
	solo, err := New([]string{boot(capSolo)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solo.RunSpecs(context.Background(), specs[:1], nil); err != nil {
		t.Fatal(err)
	}
	capSolo.mu.Lock()
	defer capSolo.mu.Unlock()
	if len(capSolo.peers) != 0 {
		t.Errorf("single-replica sweep pushed peer sets: %v", capSolo.peers)
	}
}
