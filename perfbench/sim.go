package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"twmarch/internal/campaign"
	"twmarch/internal/complexity"
	"twmarch/internal/core"
	"twmarch/internal/diagnose"
	"twmarch/internal/ecc"
	"twmarch/internal/faults"
	"twmarch/internal/faultsim"
	"twmarch/internal/march"
	"twmarch/internal/repair"
	"twmarch/internal/word"
)

// The traced replay simulates each cell by calling the same public
// functions campaign's cell runner composes — transform, enumerate,
// build the reference, run lanes or the pipeline — with a span around
// each call. Its results must equal twmd's byte for byte (the replay
// check), so the replay cannot drift from the program unnoticed.
// Benchmark specs never set the Naive or NoLanes debugging toggles, so
// the replay always takes the default paths.

// laneBatch matches the engine's cancellation batch: one RunLanes call
// per 2048 faults.
const laneBatch = 2048

// pipeChunk is the number of faults the pipeline replay moves through
// each stage at once. The stages are per-fault pure functions, so
// running a chunk stage by stage gives the per-fault loop's tallies
// while each stage becomes one span.
const pipeChunk = 256

// sim runs cells under spans.
type sim struct {
	rec *recorder
}

// faultCache shares one enumeration per geometry within a campaign,
// like the engine's per-run cache.
type faultCache struct {
	mu    sync.Mutex
	lists map[[2]int][]faults.Fault
}

func (s sim) faults(fc *faultCache, spec campaign.Spec, words, width, parent int) ([]faults.Fault, error) {
	key := [2]int{words, width}
	fc.mu.Lock()
	list, ok := fc.lists[key]
	fc.mu.Unlock()
	if ok {
		return list, nil
	}
	scope, err := campaign.PairScope(spec.Scope)
	if err != nil {
		return nil, err
	}
	sp := s.rec.begin(parent, "faults.enumerate")
	list, err = campaign.FaultList(spec.Classes, scope, words, width)
	s.rec.end(sp, len(list))
	if err != nil {
		return nil, err
	}
	fc.mu.Lock()
	if fc.lists == nil {
		fc.lists = make(map[[2]int][]faults.Fault)
	}
	fc.lists[key] = list
	fc.mu.Unlock()
	return list, nil
}

// cell simulates one cell of a normalized spec.
func (s sim) cell(ctx context.Context, spec campaign.Spec, c campaign.Cell, fc *faultCache, parent int) campaign.CellResult {
	start := time.Now()
	sp := s.rec.begin(parent, "replay.cell")
	res := campaign.CellResult{Cell: c}
	if err := s.simulate(ctx, spec, c, fc, sp, &res); err != nil {
		res.Err = err.Error()
	}
	res.DurationNS = time.Since(start).Nanoseconds()
	s.rec.end(sp, 1)
	return res
}

func (s sim) simulate(ctx context.Context, spec campaign.Spec, c campaign.Cell, fc *faultCache, parent int, res *campaign.CellResult) error {
	bm, err := march.Lookup(c.Test)
	if err != nil {
		return err
	}
	sp := s.rec.begin(parent, "core.transform")
	var test *march.Test
	var sch complexity.Scheme
	switch c.Scheme {
	case campaign.SchemeTWM:
		r, err := core.TWMTA(bm, c.Width)
		if err != nil {
			return err
		}
		test, res.TCM, res.TCP, sch = r.TWMarch, r.TCM(), r.TCP(), complexity.Proposed
	case campaign.SchemeOne:
		r, err := core.Scheme1(bm, c.Width)
		if err != nil {
			return err
		}
		test, res.TCM, res.TCP, sch = r.Test, r.TCM(), r.TCP(), complexity.Scheme1
	default:
		return fmt.Errorf("unknown scheme %q", c.Scheme)
	}
	if cost, err := complexity.ClosedFormFor(sch, bm, c.Width); err == nil {
		res.ClosedTCM, res.ClosedTCP = cost.TCM, cost.TCP
	}
	s.rec.end(sp, 1)

	list, err := s.faults(fc, spec, c.Words, c.Width, parent)
	if err != nil {
		return err
	}
	cfg := faultsim.Campaign{Test: test, Words: c.Words, Width: c.Width, Mode: faultsim.DirectCompare, Seed: c.Seed}
	if c.Mode == campaign.ModeSignature {
		cfg.Mode = faultsim.Signature
	}
	res.ByClass = make(map[string]campaign.ClassCount)
	if spec.Pipeline.On() {
		return s.pipeline(ctx, spec.Pipeline, c, cfg, list, parent, res)
	}
	sp = s.rec.begin(parent, "faultsim.reference")
	ref, err := faultsim.NewReference(cfg)
	s.rec.end(sp, 1)
	if err != nil {
		return err
	}
	for lo := 0; lo < len(list); lo += laneBatch {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(lo+laneBatch, len(list))
		sp := s.rec.begin(parent, "faultsim.lanes")
		rep, err := ref.RunLanes(list[lo:hi])
		s.rec.end(sp, hi-lo)
		if err != nil {
			return err
		}
		res.Faults += rep.Total
		res.Detected += rep.Detected
		for cls, st := range rep.ByClass {
			cc := res.ByClass[cls]
			cc.Total += st.Total
			cc.Detected += st.Detected
			res.ByClass[cls] = cc
		}
	}
	return nil
}

// verdict is one fault's trip through the pipeline stages.
type verdict struct {
	det       bool
	syn       march.Result
	diag      *diagnose.Report
	truncated bool
	plan      *repair.Plan
	ecc       ecc.Status
}

// pipeline replays the detect→diagnose→repair→ECC stage chunk by
// chunk, one span per stage per chunk.
func (s sim) pipeline(ctx context.Context, p *campaign.PipelineSpec, c campaign.Cell, cfg faultsim.Campaign, list []faults.Fault, parent int, res *campaign.CellResult) error {
	y := &campaign.YieldStats{ByDiagClass: make(map[string]int)}
	codec, err := pipelineCodec(p, c.Width)
	if err != nil {
		return err
	}
	maxSyn := p.MaxSyndrome
	if maxSyn == 0 {
		maxSyn = campaign.DefaultMaxSyndrome
	}
	signature := c.Mode == campaign.ModeSignature
	var detect func(faults.Fault) (bool, error)
	if signature {
		sp := s.rec.begin(parent, "faultsim.reference")
		detect, err = cfg.Detector()
		s.rec.end(sp, 1)
		if err != nil {
			return err
		}
	}
	vs := make([]verdict, pipeChunk)
	for lo := 0; lo < len(list); lo += pipeChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := list[lo:min(lo+pipeChunk, len(list))]
		v := vs[:len(chunk)]
		clear(v)
		if signature {
			sp := s.rec.begin(parent, "faultsim.scalar")
			for i, f := range chunk {
				if v[i].det, err = detect(f); err != nil {
					return err
				}
			}
			s.rec.end(sp, len(chunk))
		}
		sp, n := s.rec.begin(parent, "faultsim.syndrome"), 0
		for i, f := range chunk {
			if signature && !v[i].det {
				continue
			}
			if v[i].syn, err = faultsim.Syndrome(cfg, f, maxSyn); err != nil {
				return err
			}
			if !signature {
				v[i].det = v[i].syn.Detected()
			}
			n++
		}
		s.rec.end(sp, n)
		sp, n = s.rec.begin(parent, "diagnose.analyze"), 0
		for i := range v {
			if v[i].det {
				v[i].diag = diagnose.Analyze(v[i].syn, c.Width)
				v[i].truncated = v[i].syn.MismatchCount > len(v[i].syn.Mismatches)
				n++
			}
		}
		s.rec.end(sp, n)
		sp, n = s.rec.begin(parent, "repair.allocate"), 0
		for i := range v {
			if v[i].det && v[i].diag != nil && v[i].diag.Class != diagnose.NoFault {
				if v[i].plan, err = repair.Allocate(v[i].diag.Sites, p.SpareRows, p.SpareCols); err != nil {
					return err
				}
				n++
			}
		}
		s.rec.end(sp, n)
		if codec != nil {
			sp, n = s.rec.begin(parent, "ecc.classify"), 0
			for i, f := range chunk {
				if !v[i].det {
					v[i].ecc = eccOutcome(codec, f)
					n++
				}
			}
			s.rec.end(sp, n)
		}
		for i, f := range chunk {
			tally(res, y, f, &v[i])
		}
	}
	if len(y.ByDiagClass) == 0 {
		y.ByDiagClass = nil
	}
	res.Yield = y
	return nil
}

// tally folds one fault's verdict into the cell, as the pipeline's
// per-fault loop does.
func tally(res *campaign.CellResult, y *campaign.YieldStats, f faults.Fault, v *verdict) {
	res.Faults++
	cc := res.ByClass[f.Class()]
	cc.Total++
	y.Analyzed++
	if !v.det {
		res.ByClass[f.Class()] = cc
		y.Escapes++
		switch v.ecc {
		case ecc.Corrected:
			y.ECCCorrected++
		case ecc.DoubleError:
			y.ECCDetected++
		}
		return
	}
	res.Detected++
	cc.Detected++
	res.ByClass[f.Class()] = cc
	y.Detected++
	if v.truncated {
		y.TruncatedSyndromes++
	}
	if v.diag == nil || v.diag.Class == diagnose.NoFault {
		y.NoSyndrome++
		return
	}
	y.ByDiagClass[v.diag.Class.String()]++
	if v.plan.Repairable {
		y.Repairable++
		y.SpareRowsUsed += len(v.plan.Assignment.Rows)
		y.SpareColsUsed += len(v.plan.Assignment.Cols)
	} else {
		y.Unrepairable++
	}
}

// pipelineCodec builds the cell's field-ECC codec (nil without ECC).
func pipelineCodec(p *campaign.PipelineSpec, width int) (*ecc.Hamming, error) {
	switch p.ECC {
	case "", campaign.ECCNone:
		return nil, nil
	case campaign.ECCSEC, campaign.ECCSECDED:
		return ecc.NewHamming(width, p.ECC == campaign.ECCSECDED)
	}
	return nil, fmt.Errorf("unknown pipeline ecc %q", p.ECC)
}

// eccOutcome classifies what field ECC does with a test escape, from
// the fault's victim footprint: correctable when every word sees at
// most one corruptible bit (confirmed on the codec), flagged when some
// word sees two under SEC-DED, uncorrectable otherwise.
func eccOutcome(codec *ecc.Hamming, f faults.Fault) ecc.Status {
	sites, ok := faults.VictimSites(f)
	if !ok {
		return ecc.Uncorrectable
	}
	perWord := make(map[int]map[int]bool)
	worst := 0
	for _, s := range sites {
		bits := perWord[s.Addr]
		if bits == nil {
			bits = make(map[int]bool)
			perWord[s.Addr] = bits
		}
		bits[s.Bit] = true
		worst = max(worst, len(bits))
	}
	switch {
	case worst <= 1:
		for _, s := range sites {
			if s.Bit >= codec.DataWidth() {
				return ecc.Uncorrectable
			}
			stored := codec.DataBitPositions()[s.Bit]
			_, _, status, fixed := codec.Decode(codec.Encode(word.Zero).FlipBit(stored))
			if status != ecc.Corrected || fixed != stored {
				return ecc.Uncorrectable
			}
		}
		return ecc.Corrected
	case worst == 2 && codec.Extended():
		return ecc.DoubleError
	default:
		return ecc.Uncorrectable
	}
}
