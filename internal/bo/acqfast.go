package bo

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"autotune/internal/space"
)

// This file is the acquisition search. It is allocation-free when warm:
// candidates are drawn straight into reusable scalar and encoding vectors by
// a space.EncodedSampler, scored through the surrogate's PredictN,
// deduplicated against an incrementally-maintained set of encoded keys, and
// only the winning candidate is materialized into a Config. It is
// deterministic for any worker count: restart RNG streams depend only on
// (one draw from b.rng, restart index), and restarts reduce in index order
// with strict >.
//
// Dedup keys on the encoded vector, not Config.Key(): two configs differing
// only in an inactive conditional collapse to one entry, matching what the
// surrogate can actually distinguish.

// cand pairs a configuration with its acquisition score.
type cand struct {
	cfg   space.Config
	score float64
}

// searchSeed derives the RNG seed for one restart from the search's base
// seed via a SplitMix64-style mix, so restart streams are decorrelated yet
// fully determined by (base seed, restart index) — never by which worker
// ran the restart or when. The forest tier's bootstrap rng and the trust
// regions' box searches derive their streams the same way.
func searchSeed(base int64, restart int) int64 {
	z := uint64(base) + uint64(restart+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}

// acqWorkspace is one search worker's reusable state. Buffers grow to the
// candidate block size on first use and are then flat-reused, so a warm
// restart performs no heap allocation.
type acqWorkspace struct {
	rng     *rand.Rand
	scalars []float64   // nCand × pdim, flat
	enc     []float64   // nCand × edim, flat
	encRows [][]float64 // views into enc
	mean    []float64
	vari    []float64
	keyBuf  []byte // 8 × edim scratch for encoded dedup keys
}

func (ws *acqWorkspace) ensure(nCand, pdim, edim int) {
	if ws.rng == nil {
		ws.rng = rand.New(rand.NewSource(0)) // reseeded per restart
	}
	if cap(ws.scalars) < nCand*pdim {
		ws.scalars = make([]float64, nCand*pdim)
	}
	ws.scalars = ws.scalars[:nCand*pdim]
	if cap(ws.enc) < nCand*edim {
		ws.enc = make([]float64, nCand*edim)
	}
	ws.enc = ws.enc[:nCand*edim]
	if cap(ws.encRows) < nCand {
		ws.encRows = make([][]float64, nCand)
	}
	ws.encRows = ws.encRows[:nCand]
	for c := 0; c < nCand; c++ {
		ws.encRows[c] = ws.enc[c*edim : (c+1)*edim]
	}
	if cap(ws.mean) < nCand {
		ws.mean = make([]float64, nCand)
		ws.vari = make([]float64, nCand)
	}
	ws.mean, ws.vari = ws.mean[:nCand], ws.vari[:nCand]
	if cap(ws.keyBuf) < 8*edim {
		ws.keyBuf = make([]byte, 8*edim)
	}
	ws.keyBuf = ws.keyBuf[:8*edim]
}

// fastOutcome is one restart's result with the winning candidates held as
// scalar snapshots instead of materialized Configs.
type fastOutcome struct {
	topScore    float64
	topAnyScore float64
	top         []float64 // pdim snapshot, valid when topScore > -Inf
	topAny      []float64
	err         error
}

// encKey writes the bitwise content of enc into buf and returns it. Used as
// a map key via string(buf), which the compiler keeps off the heap for
// lookups; only inserts copy.
func encKey(enc []float64, buf []byte) []byte {
	for i, v := range enc {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// ensureSampler lazily compiles the flat sampler for the current encoding.
func (b *BO) ensureSampler() *space.EncodedSampler {
	if b.sampler == nil {
		b.sampler = space.NewEncodedSampler(b.space, b.opts.OneHot)
	}
	return b.sampler
}

// syncSeen brings the encoded dedup set up to date with history. Keys are
// encoded vectors, so only genuinely new observations pay an insert.
func (b *BO) syncSeen() {
	enc := b.encoded()
	if b.seenEnc == nil {
		b.seenEnc = make(map[string]bool, len(enc)+16)
	}
	es := b.ensureSampler()
	if cap(b.encBuf) < es.Dim() {
		b.encBuf = make([]float64, es.Dim())
	}
	b.encBuf = b.encBuf[:es.Dim()]
	if cap(b.keyBuf) < 8*es.Dim() {
		b.keyBuf = make([]byte, 8*es.Dim())
	}
	b.keyBuf = b.keyBuf[:8*es.Dim()]
	for _, row := range enc[b.seenN:] {
		b.seenEnc[string(encKey(row, b.keyBuf))] = true
	}
	b.seenN = len(enc)
}

// encodeInto encodes cfg into buf under the optimizer's encoding.
func (b *BO) encodeInto(cfg space.Config, buf []float64) {
	if b.opts.OneHot {
		b.space.EncodeOneHotInto(cfg, buf)
	} else {
		b.space.EncodeInto(cfg, buf)
	}
}

// runRestartFast samples and scores one restart's candidate block through
// the flat buffers. It reads shared state (space, model, seenEnc) and writes
// only its own workspace and outcome, so restarts run concurrently; panics
// become errors so one bad kernel input cannot kill the worker pool.
//
//autolint:hotpath
func (b *BO) runRestartFast(model surModel, best float64, seed int64, nCand int, ws *acqWorkspace, out *fastOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("bo: acquisition restart panic: %v", r)
		}
	}()
	es := b.sampler
	pdim := b.space.Dim()
	edim := es.Dim()
	ws.ensure(nCand, pdim, edim)
	// Seeding the reused rand.Rand replays exactly the stream a fresh
	// rand.New(rand.NewSource(seed)) would produce.
	ws.rng.Seed(seed)
	out.topScore, out.topAnyScore = math.Inf(-1), math.Inf(-1)
	out.err = nil
	for c := 0; c < nCand; c++ {
		es.SampleInto(ws.rng, ws.scalars[c*pdim:(c+1)*pdim], ws.encRows[c])
	}
	if err := model.PredictN(ws.encRows, ws.mean, ws.vari); err != nil {
		out.err = err
		return
	}
	for c := 0; c < nCand; c++ {
		sc := b.opts.Acq.Score(ws.mean[c], math.Sqrt(ws.vari[c]), best)
		if sc > out.topAnyScore {
			out.topAnyScore = sc
			copy(out.topAny, ws.scalars[c*pdim:(c+1)*pdim])
		}
		if sc > out.topScore && !b.seenEnc[string(encKey(ws.encRows[c], ws.keyBuf))] {
			out.topScore = sc
			copy(out.top, ws.scalars[c*pdim:(c+1)*pdim])
		}
	}
}

// searchAcqFast is the deterministic parallel multi-start acquisition
// search. Candidates are split across AcqRestarts restarts; each restart
// draws from its own RNG seeded by (one draw from b.rng, restart index) and
// restarts are reduced strictly in index order with a strict > comparison,
// so the result is bitwise-identical for any AcqWorkers value and any
// goroutine schedule. Exactly one value is consumed from b.rng per search.
func (b *BO) searchAcqFast(model surModel, best float64) (top, topAny cand, err error) {
	restarts := b.opts.AcqRestarts
	per := (b.opts.Candidates + restarts - 1) / restarts
	baseSeed := b.rng.Int63()
	pdim := b.space.Dim()
	if cap(b.fastRes) < restarts {
		b.fastRes = make([]fastOutcome, restarts)
	}
	results := b.fastRes[:restarts]
	for i := range results {
		if cap(results[i].top) < pdim {
			results[i].top = make([]float64, pdim)
			results[i].topAny = make([]float64, pdim)
		}
		results[i].top = results[i].top[:pdim]
		results[i].topAny = results[i].topAny[:pdim]
	}
	workers := b.opts.AcqWorkers
	if workers > restarts {
		workers = restarts
	}
	if workers < 1 {
		workers = 1
	}
	for len(b.acqWS) < workers {
		b.acqWS = append(b.acqWS, &acqWorkspace{})
	}
	if workers <= 1 {
		ws := b.acqWS[0]
		for i := 0; i < restarts; i++ {
			b.runRestartFast(model, best, searchSeed(baseSeed, i), per, ws, &results[i])
		}
	} else {
		// Pre-filled buffered channel: workers drain it and exit when it is
		// empty, so no sender can block even if a worker dies.
		jobs := make(chan int, restarts)
		for i := 0; i < restarts; i++ {
			jobs <- i
		}
		close(jobs)
		var mu sync.Mutex
		var poolErr error
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(ws *acqWorkspace) {
				defer func() {
					// runRestartFast recovers its own panics; this guards the
					// loop plumbing so the pool always unblocks wg.Wait.
					if r := recover(); r != nil {
						mu.Lock()
						if poolErr == nil {
							poolErr = fmt.Errorf("bo: acquisition worker panic: %v", r)
						}
						mu.Unlock()
					}
					wg.Done()
				}()
				for i := range jobs {
					b.runRestartFast(model, best, searchSeed(baseSeed, i), per, ws, &results[i])
				}
			}(b.acqWS[w])
		}
		wg.Wait()
		if poolErr != nil {
			return cand{}, cand{}, poolErr
		}
	}
	topScore, topAnyScore := math.Inf(-1), math.Inf(-1)
	var topScalars, topAnyScalars []float64
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return cand{}, cand{}, r.err
		}
		if r.topScore > topScore {
			topScore, topScalars = r.topScore, r.top
		}
		if r.topAnyScore > topAnyScore {
			topAnyScore, topAnyScalars = r.topAnyScore, r.topAny
		}
	}
	es := b.sampler
	if topScalars != nil {
		top = cand{es.Config(topScalars), topScore}
	} else {
		top = cand{nil, topScore}
	}
	if topAnyScalars != nil {
		topAny = cand{es.Config(topAnyScalars), topAnyScore}
	} else {
		topAny = cand{nil, topAnyScore}
	}
	return top, topAny, nil
}

// maximizeAcq runs the multi-start acquisition search (see searchAcqFast),
// optionally refines the best numeric point locally, and dedups against
// already-evaluated configs. The incumbent comes from the model itself
// (MinY), so fantasized observations on a cloned surrogate participate.
func (b *BO) maximizeAcq(model surModel) (space.Config, error) {
	best := model.MinY()
	b.ensureSampler()
	b.syncSeen()
	top, topAny, err := b.searchAcqFast(model, best)
	if err != nil {
		return nil, err
	}
	if top.cfg == nil {
		top = topAny // everything seen (tiny discrete space): repeat is fine
	}
	if b.opts.RefineIters > 0 && top.cfg != nil {
		refined := b.refine(model, top.cfg, best)
		// Refinement decodes arbitrary cube points, which can step outside
		// declared constraints; discard such candidates.
		if refined != nil && b.space.Validate(refined) != nil {
			refined = nil
		}
		if refined != nil {
			b.encodeInto(refined, b.encBuf)
			if !b.seenEnc[string(encKey(b.encBuf, b.keyBuf))] {
				mu, v, err := model.Predict(b.encBuf)
				if err == nil {
					if sc := b.opts.Acq.Score(mu, math.Sqrt(v), best); sc > top.score {
						top = cand{refined, sc}
					}
				}
			}
		}
	}
	if top.cfg == nil {
		return b.space.Sample(b.rng), nil
	}
	return top.cfg, nil
}
