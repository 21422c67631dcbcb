package mpiio

import (
	"fmt"

	"repro/internal/pfs"
)

// buildWritePlan reuses the stripe-cyclic domain machinery of reads; the
// file need not contain the target range yet, so the plan is built without
// EOF clamping.
func (f *File) buildWritePlan(reqs []span) *readPlan {
	p := &readPlan{reqs: reqs}
	lo, hi := int64(-1), int64(0)
	for i := range reqs {
		if reqs[i].length < 0 || reqs[i].off < 0 {
			p.err = fmt.Errorf("mpiio: invalid write request %+v", reqs[i])
			return p
		}
		if reqs[i].length == 0 {
			continue
		}
		if lo < 0 || reqs[i].off < lo {
			lo = reqs[i].off
		}
		if reqs[i].end() > hi {
			hi = reqs[i].end()
		}
	}
	if lo < 0 {
		p.lo, p.hi = 0, 0
		return p
	}
	p.lo, p.hi = lo, hi

	cfg := f.comm.Config()
	aggCount := f.aggregatorCount()
	stripe := int64(float64(f.pf.StripeSize()) / f.pf.Scale())
	if stripe < 1 {
		stripe = 1
	}
	p.stripeReal = stripe
	p.s0 = lo / stripe
	for k := 0; k < aggCount; k++ {
		node := k * cfg.Nodes / aggCount
		p.aggRanks = append(p.aggRanks, node*cfg.RanksPerNode)
	}
	bufReal := int64(float64(f.hint.bufferSize()) / f.pf.Scale())
	if bufReal < 1 {
		bufReal = 1
	}
	p.cycleLen = min(bufReal, stripe)
	p.cyclesPerStripe = int((stripe + p.cycleLen - 1) / p.cycleLen)
	s1 := (hi - 1) / stripe
	totalStripes := s1 - p.s0 + 1
	maxStripes := int((totalStripes + int64(aggCount) - 1) / int64(aggCount))
	p.cycles = maxStripes * p.cyclesPerStripe

	for c := 0; c < p.cycles; c++ {
		var batch []pfs.Request
		var who []int
		for k := 0; k < aggCount; k++ {
			s := p.cycleSlice(k, c)
			if s.length == 0 {
				continue
			}
			batch = append(batch, pfs.Request{
				Node:   cfg.NodeOf(p.aggRanks[k]),
				Offset: s.off,
				Length: s.length,
			})
			who = append(who, k)
		}
		times := make([]float64, aggCount)
		if len(batch) > 0 {
			durs, err := f.pf.BatchTime(batch)
			if err != nil {
				p.err = err
				return p
			}
			for i, k := range who {
				times[k] = durs[i]
			}
		}
		p.aggTime = append(p.aggTime, times)
	}
	return p
}

// WriteViewAll is the collective write (the output side of §4.1 and the
// Figure 4 pattern: distributed data written to one file in global layout
// order): each rank writes len(buf) visible bytes of its view starting at
// visible offset viewOff; without a view, visible offsets are file
// offsets. Two-phase I/O: every rank ships its pieces to the stripe-cyclic
// aggregators, which assemble their file-domain slices (read-modify-write
// where the ranks leave holes) and perform the physical writes. Every rank
// of the communicator must call it; ranks with nothing to write pass an
// empty buffer. The view pieces of all ranks must not overlap.
func (f *File) WriteViewAll(buf []byte, viewOff int64) (int, error) {
	if err := f.checkLimit(len(buf)); err != nil {
		return 0, err
	}
	myRanges := f.view.ranges(viewOff, int64(len(buf)))

	// Writers with non-contiguous views pay the same flattened-list
	// processing as readers; gather everyone's ranges once.
	enc := encodeSpans(myRanges)
	allEnc, err := f.comm.Allgather(enc)
	if err != nil {
		return 0, err
	}
	nRanks := f.comm.Size()
	allRanges := make([][]span, nRanks)
	totalRanges := 0
	for i, e := range allEnc {
		allRanges[i] = decodeSpans(e)
		totalRanges += len(allRanges[i])
	}

	// Each rank's hull feeds the stripe-cyclic two-phase write plan.
	hull := func(rs []span) span {
		if len(rs) == 0 {
			return span{}
		}
		lo, hi := rs[0].off, rs[0].end()
		for _, r := range rs[1:] {
			lo = min(lo, r.off)
			hi = max(hi, r.end())
		}
		return span{off: lo, length: hi - lo}
	}
	planAny, err := f.comm.WorldSync("mpiio.vieww:"+f.pf.Name(), hull(myRanges), func(inputs []any) []any {
		reqs := make([]span, len(inputs))
		for i, in := range inputs {
			reqs[i] = in.(span)
		}
		plan := f.buildWritePlan(reqs)
		outs := make([]any, len(inputs))
		for i := range outs {
			outs[i] = plan
		}
		return outs
	})
	if err != nil {
		return 0, err
	}
	plan := planAny.(*readPlan)
	if plan.err != nil {
		return 0, plan.err
	}
	rank := f.comm.Rank()
	myAgg := plan.aggIndex(rank)
	scale := f.pf.Scale()
	chunkLat := f.pf.Params().ChunkLatency

	for c := 0; c < plan.cycles; c++ {
		// Sends: walk my ranges against each aggregator's slice in file
		// order, shipping the overlapping pieces of my buffer.
		send := make([][]byte, nRanks)
		for k, ar := range plan.aggRanks {
			sl := plan.cycleSlice(k, c)
			visPos := int64(0)
			for _, rg := range myRanges {
				ov := sl.overlap(rg)
				if ov.length > 0 {
					bufPos := visPos + (ov.off - rg.off)
					send[ar] = append(send[ar], buf[bufPos:bufPos+ov.length]...)
				}
				visPos += rg.length
			}
		}
		recvSizes := make([]int, nRanks)
		if myAgg >= 0 {
			sl := plan.cycleSlice(myAgg, c)
			for r := 0; r < nRanks; r++ {
				for _, rg := range allRanges[r] {
					recvSizes[r] += int(sl.overlap(rg).length)
				}
			}
		}
		//vet:allow collective — an aggregator whose WriteAt failed cannot accept the next cycle's pieces; its early return is best-effort teardown and the world abort releases the peers with ErrAborted
		parts, aerr := f.comm.Alltoallv(send, recvSizes)
		if aerr != nil {
			return 0, aerr
		}
		if myAgg >= 0 {
			sl := plan.cycleSlice(myAgg, c)
			if sl.length > 0 {
				// Aggregation work over the flattened lists, then per-piece
				// filesystem round trips for sparse pieces, as on the read
				// side.
				f.comm.Compute(float64(totalRanges) * scale * listScanCost)
				data := make([]byte, sl.length)
				f.pf.ReadAt(data, sl.off) // read-modify-write for the holes
				pieces := 0
				for r := 0; r < nRanks; r++ {
					cursor := 0
					for _, rg := range allRanges[r] {
						ov := sl.overlap(rg)
						if ov.length > 0 {
							copy(data[ov.off-sl.off:], parts[r][cursor:cursor+int(ov.length)])
							cursor += int(ov.length)
							pieces++
						}
					}
				}
				if pieces > 1 {
					f.comm.Compute(float64(pieces) * scale * chunkLat)
				}
				if _, werr := f.pf.WriteAt(data, sl.off); werr != nil {
					return 0, werr
				}
				f.comm.Compute(plan.aggTime[c][myAgg])
			}
		}
	}
	return len(buf), nil
}
