package admit

import "testing"

// TestBackoffDelayDeterministicAndBounded: the retry delay is a pure
// function of (seed, idx, retries, maxBackoff) and always lands in
// [1, maxBackoff]; over a grid of inputs every value in that range occurs,
// so the hash does not collapse onto a few delays.
func TestBackoffDelayDeterministicAndBounded(t *testing.T) {
	seeds := []uint64{0, 1, 0x5eed, 1 << 63, ^uint64(0)}
	for _, maxBackoff := range []int{1, 2, 4, 7} {
		seen := make(map[int]bool)
		for _, seed := range seeds {
			for idx := 0; idx < 64; idx++ {
				for retries := 0; retries < 10; retries++ {
					d := backoffDelay(seed, idx, retries, maxBackoff)
					if d < 1 || d > maxBackoff {
						t.Fatalf("backoffDelay(%#x, %d, %d, %d) = %d, want in [1, %d]", seed, idx, retries, maxBackoff, d, maxBackoff)
					}
					if again := backoffDelay(seed, idx, retries, maxBackoff); again != d {
						t.Fatalf("backoffDelay(%#x, %d, %d, %d) not deterministic: %d then %d", seed, idx, retries, maxBackoff, d, again)
					}
					seen[d] = true
				}
			}
		}
		if len(seen) != maxBackoff {
			t.Errorf("maxBackoff=%d: only %d distinct delays over the grid", maxBackoff, len(seen))
		}
	}
}

// TestRetryDelayPastBudgetIsZero: once an event has retried more than
// MaxRetries times it retries every wave.
func TestRetryDelayPastBudgetIsZero(t *testing.T) {
	cfg := Config{Seed: 3}.withDefaults()
	for retries := 0; retries <= cfg.MaxRetries+2; retries++ {
		it := &item{idx: 5, retries: retries}
		d := retryDelay(cfg, it)
		switch {
		case retries > cfg.MaxRetries && d != 0:
			t.Errorf("retries=%d past budget %d: delay %d, want 0", retries, cfg.MaxRetries, d)
		case retries <= cfg.MaxRetries && d != backoffDelay(cfg.Seed, 5, retries, cfg.MaxBackoff):
			t.Errorf("retries=%d: delay %d, want the seeded backoff", retries, d)
		}
	}
}
