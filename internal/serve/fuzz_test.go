package serve

import (
	"strings"
	"testing"
)

// FuzzJobRequest: /v1/jobs bodies come off the network. Decoding and
// validating one, exactly as handleSubmit does, must never panic, and
// an accepted request's content address must be stable.
func FuzzJobRequest(f *testing.F) {
	for _, body := range []string{
		// The bodies the service smokes submit.
		`{"experiment": "E1a", "options": {"threads": [2], "measure_ms": 0.5, "warmup_ms": 0.2}}`,
		`{"experiment": "E1a", "options": {"threads": [2], "measure_ms": 0.5, "warmup_ms": 0.2}, "no_cache": true}`,
		`{"explore": {"config": {"structure": "list", "scheme": "stacktrack"}, "wall_ms": 20000}}`,
		// Other shapes: quick sweep, point shard, deterministic campaign.
		`{"experiment": "E1a", "options": {"quick": true}}`,
		`{"kind": "point", "experiment": "E2b", "options": {"quick": true}, "shard": [4]}`,
		`{"explore": {"config": {"structure": "list", "scheme": "epoch", "measure_cycles": 200000}, "max_runs": 2}}`,
		`{"kind": "nope"}`,
		`{"experiment": "E1a", "bogus": 1}`,
		``,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeJobRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		key, err := validate(req)
		if err != nil {
			return
		}
		if again, err := validate(req); err != nil || again != key {
			t.Fatalf("validate(%q) not stable: %q then %q, %v", body, key, again, err)
		}
	})
}
