package par

// ForStagesCtx runs a SEQUENCE of dynamically-chunked parallel loops — one
// per stage, stage s covering [0, count(ctx, s)) — on a single worker team
// with a barrier between consecutive stages. It exists for runs of small
// color sets in the colored sweep: each set must fully complete before the
// next starts (its moves must be visible), but paying a full fork/join —
// goroutine spawns, closure setup, WaitGroup — per tiny set costs more than
// the set's own work. One team amortizes that setup across the whole run of
// stages; only the dispatcher's barrier (an atomic arrival count plus a
// release epoch, see loop.work) separates them. Each stage is count-cut
// with the default grain.
//
// Like every ...Ctx form, ctx and the two function values must be
// CAPTURELESS for the single-worker path to stay allocation-free; with one
// effective worker the stages simply run serially in order, which is also
// the bitwise-reference behavior the colored sweep's determinism tests pin.
// Effective workers are normalized against the LARGEST stage; the worker
// index passed to body is stable across all stages of one call, so
// per-worker scratch (sized by Workers) is reusable throughout.
func ForStagesCtx[C any](ctx C, stages int, count func(ctx C, stage int) int, p int, body func(ctx C, stage, worker, lo, hi int)) {
	if stages <= 0 {
		return
	}
	maxN := 0
	for s := 0; s < stages; s++ {
		if n := count(ctx, s); n > maxN {
			maxN = n
		}
	}
	nw := normWorkers(p, maxN)
	if nw == 1 {
		for s := 0; s < stages; s++ {
			if n := count(ctx, s); n > 0 {
				body(ctx, s, 0, 0, n)
			}
		}
		return
	}
	(&loop[C]{ctx: ctx, staged: body, count: count, stages: stages, p: nw}).run()
}
