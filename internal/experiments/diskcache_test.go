package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"samielsq/internal/energy"
)

// cacheTestSpec is a tiny simulation so the cache tests stay fast.
func cacheTestSpec() RunSpec {
	return RunSpec{Benchmark: "gzip", Insts: 5_000, Model: ModelSAMIE}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b1, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh := b1.Run(cacheTestSpec())
	if st := b1.DiskStats(); st.Writes != 1 || st.Hits != 0 {
		t.Fatalf("first run stats = %+v, want 1 write", st)
	}

	// A second batch over the same directory must serve from disk and
	// reproduce the result exactly (everything figures consume).
	b2, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	cached := b2.Run(cacheTestSpec())
	if st := b2.DiskStats(); st.Hits != 1 || st.Writes != 0 {
		t.Fatalf("second run stats = %+v, want 1 hit", st)
	}
	if cached.CPU != fresh.CPU {
		t.Errorf("CPU result differs: disk %+v vs fresh %+v", cached.CPU, fresh.CPU)
	}
	if *cached.Meter != *fresh.Meter {
		t.Errorf("meter differs after round trip")
	}
	if cached.SAMIE != fresh.SAMIE {
		t.Errorf("SAMIE stats differ after round trip")
	}
	if cached.Hier != nil {
		t.Errorf("disk-served result must carry a nil Hier")
	}
	if cached.Spec.Insts != 5_000 || cached.Spec.SAMIE == nil {
		t.Errorf("restored spec not normalized: %+v", cached.Spec)
	}
}

func TestDiskCacheCorruptAndPartialFiles(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	b.Run(cacheTestSpec())

	files, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected one artifact, got %v (%v)", files, err)
	}
	for _, corrupt := range []func() error{
		func() error { return os.WriteFile(files[0], []byte("{not json"), 0o644) },       // corrupt
		func() error { return os.Truncate(files[0], 10) },                                // partial write
		func() error { return os.WriteFile(files[0], []byte(`{"Version":999}`), 0o644) }, // version skew
	} {
		if err := corrupt(); err != nil {
			t.Fatal(err)
		}
		nb, err := NewBatchWithCache(1, dir)
		if err != nil {
			t.Fatal(err)
		}
		res := nb.Run(cacheTestSpec())
		st := nb.DiskStats()
		if st.Hits != 0 || st.Misses != 1 || st.Writes != 1 {
			t.Fatalf("corrupt artifact not recovered: stats %+v", st)
		}
		if res.CPU.Committed == 0 {
			t.Fatal("re-simulation after corrupt artifact produced nothing")
		}
		// The rewrite must have repaired the artifact.
		rb, _ := NewBatchWithCache(1, dir)
		rb.Run(cacheTestSpec())
		if rs := rb.DiskStats(); rs.Hits != 1 {
			t.Fatalf("artifact not repaired after corruption: %+v", rs)
		}
	}
}

func TestDiskCacheConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	// Many batches race to simulate and persist the same spec; every
	// one must succeed and the surviving artifact must be valid.
	var wg sync.WaitGroup
	results := make([]RunResult, 6)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := NewBatchWithCache(1, dir)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = b.Run(cacheTestSpec())
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i].CPU != results[0].CPU {
			t.Fatalf("racing writers produced different results")
		}
	}
	b, _ := NewBatchWithCache(1, dir)
	b.Run(cacheTestSpec())
	if st := b.DiskStats(); st.Hits != 1 {
		t.Fatalf("artifact invalid after concurrent writers: %+v", st)
	}
}

func TestDiskCacheDisabledCleanly(t *testing.T) {
	// An empty cache directory is a configuration error for the
	// explicit constructor...
	if _, err := NewBatchWithCache(1, ""); err == nil {
		t.Fatal("empty cache dir accepted")
	}
	// ...while the plain batch simply has no disk cache: zero stats,
	// no files written anywhere.
	b := NewBatch(1)
	b.Run(cacheTestSpec())
	if st := b.DiskStats(); st != (DiskCacheStats{}) {
		t.Fatalf("cacheless batch reported disk traffic: %+v", st)
	}
}

// specFor is cacheTestSpec for an arbitrary benchmark.
func specFor(bench string) RunSpec {
	s := cacheTestSpec()
	s.Benchmark = bench
	return s
}

func TestDiskCachePreload(t *testing.T) {
	dir := t.TempDir()
	b1, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]RunResult{}
	for _, bench := range []string{"gzip", "swim"} {
		want[bench] = b1.Run(specFor(bench))
	}

	// Junk beside the two valid artifacts must be skipped: a corrupt
	// body, a valid artifact under a name that is not its key's path,
	// and an artifact from another simulator build.
	if err := os.WriteFile(filepath.Join(dir, "run-zz.json"), []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(b1.Disk().path(Key(specFor("gzip"))))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run-copy.json"), valid, 0o644); err != nil {
		t.Fatal(err)
	}
	var art diskArtifact
	if err := json.Unmarshal(valid, &art); err != nil {
		t.Fatal(err)
	}
	art.Key, art.Sim = Key(specFor("mcf")), "other-build"
	writeArtifact(t, b1.Disk().path(art.Key), art)

	// A fresh batch over the same directory preloads both valid
	// artifacts: both specs then serve from memory with zero
	// simulations and zero disk traffic.
	b2, err := NewBatchWithCache(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := b2.PreloadDisk()
	if err != nil || n != 2 {
		t.Fatalf("PreloadDisk = %d, %v; want 2, nil", n, err)
	}
	for _, bench := range []string{"gzip", "swim"} {
		r, err := b2.RunCtx(context.Background(), specFor(bench))
		if err != nil {
			t.Fatal(err)
		}
		if r.CPU != want[bench].CPU {
			t.Errorf("%s: preloaded CPU result differs", bench)
		}
		if r.Spec.Benchmark != bench || r.Spec.SAMIE == nil {
			t.Errorf("%s: preloaded result lost its normalized spec: %+v", bench, r.Spec)
		}
	}
	st := b2.Stats()
	if st.Executed != 0 || st.Hits != 2 {
		t.Fatalf("preloaded batch stats %+v, want executed=0 hits=2", st)
	}
	if ds := b2.DiskStats(); ds.Hits != 0 || ds.Misses != 0 {
		t.Fatalf("preload counted as disk traffic: %+v", ds)
	}

	// Preloading an uncached batch is a configuration error.
	if _, err := NewBatch(1).PreloadDisk(); err == nil {
		t.Fatal("PreloadDisk on a cacheless batch did not error")
	}
}

// TestDiskCacheSharedDirPreload pins what a reader of a shared cache
// directory enumerates: every writer's artifacts, whichever process
// wrote last. Both writers open the directory before either stores,
// as two replicas booted on one -cachedir do.
func TestDiskCacheSharedDirPreload(t *testing.T) {
	dir := t.TempDir()
	var writers []*Batch
	for range 2 {
		w, err := NewBatchWithCache(1, dir)
		if err != nil {
			t.Fatal(err)
		}
		writers = append(writers, w)
	}
	writers[0].Run(specFor("gzip"))
	writers[1].Run(specFor("swim"))
	r, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.PreloadDisk(); err != nil || n != 2 {
		t.Fatalf("PreloadDisk after two writers = %d, %v; want 2, nil", n, err)
	}
}

// FuzzDiskArtifact writes arbitrary bytes to one key's artifact path:
// load never panics and serves a result exactly when the body passes
// validArtifact for that key, and PreloadDisk installs at most that
// one result.
func FuzzDiskArtifact(f *testing.F) {
	key := Key(cacheTestSpec())
	seed := func(mutate func(*diskArtifact)) []byte {
		art := diskArtifact{
			Version: diskCacheVersion, Sim: simStamp(), Key: key,
			Spec: Normalize(cacheTestSpec()), Meter: &energy.Meter{},
		}
		mutate(&art)
		data, err := json.Marshal(art)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := seed(func(*diskArtifact) {})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(seed(func(a *diskArtifact) { a.Key = Key(specFor("swim")) }))
	f.Add(seed(func(a *diskArtifact) { a.Sim = "other-build" }))
	f.Add(seed(func(a *diskArtifact) { a.Meter = nil }))
	f.Add([]byte("{bad"))
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		d, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d.path(key), body, 0o644); err != nil {
			t.Fatal(err)
		}
		var art diskArtifact
		want := json.Unmarshal(body, &art) == nil && validArtifact(&art, key)
		if _, ok := d.load(key); ok != want {
			t.Fatalf("load ok = %v, want %v for body %q", ok, want, body)
		}
		b, err := NewBatchWithCache(1, dir)
		if err != nil {
			t.Fatal(err)
		}
		n, err := b.PreloadDisk()
		if err != nil || n > 1 || (n == 1) != want {
			t.Fatalf("PreloadDisk = %d, %v; want %v installs of the one artifact", n, err, want)
		}
		if b.DistinctRuns() != n {
			t.Fatalf("batch holds %d results after preloading %d", b.DistinctRuns(), n)
		}
	})
}

// writeArtifact persists art at path, bypassing DiskCache.store.
func writeArtifact(t testing.TB, path string, art diskArtifact) {
	t.Helper()
	data, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDiskCachePruneBySize(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"gzip", "swim", "mcf"} {
		b.Run(specFor(bench))
	}
	files := artifactFiles(t, dir)
	if len(files) != 3 {
		t.Fatalf("have %d artifacts, want 3", len(files))
	}
	// Distinct mtimes so "oldest first" is deterministic.
	for i, p := range files {
		mt := time.Now().Add(-time.Duration(len(files)-i) * time.Hour)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Keep one artifact's worth of bytes: pruning retains newest-first,
	// so the budget must fit the newest artifact (files[2] after the
	// Chtimes above — glob order is hash order, not age order).
	var one int64
	if st, err := os.Stat(files[len(files)-1]); err == nil {
		one = st.Size()
	}
	ps, err := b.Disk().Prune(one+16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Removed != 2 || ps.Remaining != 1 {
		t.Fatalf("prune stats %+v, want 2 removed, 1 remaining", ps)
	}
	if got := artifactFiles(t, dir); len(got) != 1 {
		t.Fatalf("%d artifacts survive, want 1", len(got))
	}
	fresh, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := fresh.PreloadDisk(); err != nil || n != 1 {
		t.Fatalf("PreloadDisk after prune = %d, %v; want 1, nil", n, err)
	}
}

func TestDiskCachePruneByAge(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	b.Run(specFor("gzip"))
	b.Run(specFor("swim"))
	gzipArt := b.Disk().path(Key(specFor("gzip")))
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(gzipArt, old, old); err != nil {
		t.Fatal(err)
	}
	// A stale temp file from a killed writer is collected too.
	stale := filepath.Join(dir, "tmp-run-dead")
	if err := os.WriteFile(stale, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	ps, err := b.Disk().Prune(0, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Removed != 1 || ps.Remaining != 1 {
		t.Fatalf("prune stats %+v, want 1 removed, 1 remaining", ps)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived the prune")
	}
	// The unexpired artifact still serves.
	nb, _ := NewBatchWithCache(1, dir)
	nb.Run(specFor("swim"))
	if st := nb.DiskStats(); st.Hits != 1 {
		t.Fatalf("surviving artifact no longer serves: %+v", st)
	}
}

// artifactFiles lists the run artifacts sorted by name.
func artifactFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestBatchCacheLimitLRU(t *testing.T) {
	b := NewBatch(1)
	b.SetCacheLimit(2)
	s1 := cacheTestSpec()
	s2 := cacheTestSpec()
	s2.Benchmark = "swim"
	s3 := cacheTestSpec()
	s3.Benchmark = "mcf"

	b.Run(s1)
	b.Run(s2)
	b.Run(s3) // evicts s1 (least recently requested)
	if got := b.Stats().Executed; got != 3 {
		t.Fatalf("executed %d, want 3", got)
	}
	b.Run(s2) // still cached
	if got := b.Stats().Executed; got != 3 {
		t.Fatalf("cached spec re-executed: %d", got)
	}
	r := b.Run(s1) // evicted: must re-simulate, and deterministically so
	if got := b.Stats().Executed; got != 4 {
		t.Fatalf("evicted spec served stale: executed %d, want 4", got)
	}
	if r.CPU.Committed == 0 {
		t.Fatal("re-simulated result empty")
	}
	if b.DistinctRuns() > 2 {
		t.Fatalf("cache holds %d results, want <= 2", b.DistinctRuns())
	}
}

func TestDiskCacheArtifactsWorldReadable(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	b.Run(cacheTestSpec())

	// CreateTemp makes 0600 temp files; the rename must publish 0644 —
	// a sibling process under another uid sharing the cache directory
	// otherwise reads nothing and silently re-simulates.
	files := artifactFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected one artifact, got %v", files)
	}
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if mode := st.Mode().Perm(); mode != 0o644 {
			t.Errorf("%s published with mode %o, want 644", filepath.Base(f), mode)
		}
	}
}
