package kvcache

import "testing"

// benchTokensPerOp is the generation length each KV bench appends per
// iteration, so the per-token and bulk variants report comparable ns/op.
const benchTokensPerOp = 4096

func newBenchCache(b *testing.B) *Cache {
	b.Helper()
	c, err := New(Config{BlockSize: 16, NumBlocks: 1 << 16, BytesPerToken: 131072})
	if err != nil {
		b.Fatal(err)
	}
	// One untimed warm-up lifecycle: the sequence shell and its block
	// table land in the recycling pool, so timed iterations measure the
	// steady state even at -benchtime=1x (the CI smoke setting).
	h, err := c.Allocate(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Append(h, benchTokensPerOp); err != nil {
		b.Fatal(err)
	}
	if err := c.Free(h); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkKVAppend measures the same lifecycle as BenchmarkKVAppendToken
// through the bulk path the engine uses: one Allocate, one chunked
// Append per decode event (the engine's admission grain is 16–32 steps),
// one Free. Tracked in BENCH_serve.json by scripts/bench.sh.
func BenchmarkKVAppend(b *testing.B) {
	c := newBenchCache(b)
	const chunk = 32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := c.Allocate(1, 1)
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < benchTokensPerOp; t += chunk {
			if err := c.Append(h, chunk); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Free(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVAppendToken measures one sequence lifecycle — allocate,
// append a long reasoning trace one token at a time, free — through
// Append(h, 1), the per-token path the engine used before bulk
// accounting landed.
func BenchmarkKVAppendToken(b *testing.B) {
	c := newBenchCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := c.Allocate(1, 1)
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < benchTokensPerOp; t++ {
			if err := c.Append(h, 1); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Free(h); err != nil {
			b.Fatal(err)
		}
	}
}
