package explore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadLog feeds arbitrary bytes to LoadLog, seeded with the pinned
// schedule artifacts. A loaded log must carry a configuration that passes
// validate (so replaying it cannot panic on a bad config) and must survive
// a WriteFile/LoadLog round trip unchanged.
func FuzzLoadLog(f *testing.F) {
	files, err := filepath.Glob("testdata/*.schedule")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"config":{"strategy":"quantum-foam"},"decisions":[]}`))
	f.Add([]byte(`{"config":{"strategy":"pct","depth":1000000000000},"decisions":null}`))
	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.schedule"), filepath.Join(dir, "out.schedule")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := LoadLog(in)
		if err != nil {
			if log != nil {
				t.Fatal("log returned alongside an error")
			}
			return
		}
		if err := log.Config.validate(); err != nil {
			t.Fatalf("loaded a log whose configuration fails validation: %v", err)
		}
		if err := log.WriteFile(out); err != nil {
			t.Fatal(err)
		}
		again, err := LoadLog(out)
		if err != nil {
			t.Fatalf("reloading a written log: %v", err)
		}
		if !reflect.DeepEqual(again, log) {
			t.Fatalf("log changed across WriteFile/LoadLog:\n  first:  %+v\n  second: %+v", log, again)
		}
	})
}

// FuzzLoadSeedProgress feeds arbitrary bytes to LoadSeedProgress for one
// fixed campaign, seeded with progress files the campaign driver saved.
// A loaded progress must survive Save and a reload with its frontier, run
// count and done set unchanged.
func FuzzLoadSeedProgress(f *testing.F) {
	cfg := tinyCfg("list", "stacktrack", StrategyRandom, 1)
	dir := f.TempDir()
	for _, forkHeap := range []bool{false, true} {
		path := filepath.Join(dir, "seed.progress")
		os.Remove(path)
		p, err := LoadSeedProgress(path, cfg, forkHeap)
		if err != nil {
			f.Fatal(err)
		}
		for _, s := range []uint64{p.First, p.First + 1, p.First + 3, p.First + 6} {
			p.markDone(s)
		}
		if err := p.Save(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := LoadSeedProgress(path, cfg, forkHeap); err != nil {
			f.Fatalf("a saved progress file does not load: %v", err)
		}
		f.Add(data, forkHeap)
	}
	in := filepath.Join(dir, "in.progress")
	f.Fuzz(func(t *testing.T, data []byte, forkHeap bool) {
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := LoadSeedProgress(in, cfg, forkHeap)
		if err != nil {
			if p != nil {
				t.Fatal("progress returned alongside an error")
			}
			return
		}
		if err := p.Save(); err != nil {
			t.Fatal(err)
		}
		q, err := LoadSeedProgress(in, cfg, forkHeap)
		if err != nil {
			t.Fatalf("reloading a saved progress file: %v", err)
		}
		if q.First != p.First || q.Frontier != p.Frontier || q.Runs != p.Runs || !reflect.DeepEqual(q.doneSet, p.doneSet) {
			t.Fatalf("progress changed across Save/LoadSeedProgress:\n  first:  %d %d %d %v\n  second: %d %d %d %v",
				p.First, p.Frontier, p.Runs, p.doneSet, q.First, q.Frontier, q.Runs, q.doneSet)
		}
	})
}
