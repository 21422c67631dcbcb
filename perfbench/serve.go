package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/serve"
	"repro/internal/spatial"
)

// Offered rates of the serve-range open loop, requests per second: about
// 20% and 40% of the closed-loop saturation rate on a 2-CPU host.
const (
	lowRate  = 400
	highRate = 800
)

// closedClients is the client count of the serve-range closed loop: one
// per CPU, so the loop measures saturation throughput.
const closedClients = 2

// closedShare is the closed loop's share of the serve-range window; the
// open loop at lowRate takes the rest. Each loop runs at least a second.
const closedShare = 0.5

// poolSize is the number of distinct queries in the serve-range pool. The
// cost of a query spans orders of magnitude (a 16-degree square over a
// dense cluster against a 4-degree one over open ocean), so the pool must
// be large for its mean and tail to be the same from seed to seed.
const poolSize = 4096

// bootRounds is how many checked boots the set-up phase runs before the
// two boots that serve the loops; setup_s and input_mbps are the median of
// all of them.
const bootRounds = 3

// checkBatch is the number of pool queries every boot answers before
// closing (ids 0..checkBatch-1); its final virtual clock is virtual_s.
const checkBatch = 64

// serveWL is the serve-range workload: the WKT lakes index resident behind
// serve.Service on the uniform grid, queried from a seeded pool.
type serveWL struct {
	r *input
	queryStream
}

// queryStream is a pool of range queries with their oracle hit counts;
// request id i asks pool[i % len(pool)].
type queryStream struct {
	pool []geom.Envelope
	want []int64
}

func newServe(seed int64, tiny bool) (*serveWL, error) {
	div := 1.0
	if tiny {
		div = tinyDiv
	}
	r, err := genInput(datagen.Lakes(), seed, lakesWKTScale*div, datagen.EncodingWKT)
	if err != nil {
		return nil, err
	}
	n := poolSize
	if tiny {
		n = 128
	}
	// A seed stream distinct from wkt-query's batch, same size mix.
	pool := genQueries(seed^0x5eed, n)
	return &serveWL{r: r, queryStream: queryStream{pool: pool, want: oracleRange(r.geoms, pool)}}, nil
}

// resident is one booted service and the world serving it.
type resident struct {
	svc  *serve.Service
	boot float64 // seconds from the start of the read to Ready
	errc chan error
	// Written by the rank goroutines before mpi.Run returns; read after
	// close.
	bd       [ranks]spatial.Breakdown
	readVirt [ranks]float64
	now      [ranks]float64
	msgs     [ranks]int64 // Comm.MsgsSent over the whole world run
	sent     [ranks]int64 // Comm.BytesSent over the whole world run
}

// boot starts the world — ReadPartition, then spatial.ServeQuery, which
// partitions, exchanges, builds the cell trees and parks them behind the
// service — and returns once the service is Ready (or the world failed).
func (w *serveWL) boot(tr *tracer, parent int) *resident {
	rs := &resident{svc: serve.NewService(ranks), errc: make(chan error, 1)}
	t0 := time.Now()
	go func() {
		err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
			rank := c.Rank()
			var p core.Parser = w.r.newParser()
			var pacc *leafAcc
			if tr != nil {
				pacc = &leafAcc{}
				p = &timedParser{p: p, acc: pacc}
			}
			mf := mpiio.Open(c, w.r.file, mpiio.Hints{})
			v0 := c.Now()
			sp := tr.begin("core.ReadPartition", rank, parent)
			local, _, err := core.ReadPartition(c, mf, p, w.r.opt)
			tr.end(sp)
			tr.leaf(parseSpan(w.r), sp, pacc)
			if err != nil {
				return err
			}
			rs.readVirt[rank] = c.Now() - v0
			sp = tr.begin("spatial.ServeQuery", rank, parent)
			bd, err := spatial.ServeQuery(c, local, rs.svc, spatial.JoinOptions{GridCells: gridCells, Envelope: &world})
			tr.end(sp)
			rs.bd[rank], rs.now[rank] = bd, c.Now()
			rs.msgs[rank], rs.sent[rank] = c.MsgsSent(), c.BytesSent()
			return err
		})
		rs.svc.Close() // release clients parked on Ready if the world failed
		rs.errc <- err
	}()
	select {
	case <-rs.svc.Ready():
	case <-rs.svc.Closed():
	}
	rs.boot = time.Since(t0).Seconds()
	return rs
}

// close ends admission and waits for the ranks to replay their charges.
func (rs *resident) close() error {
	rs.svc.Close()
	return <-rs.errc
}

// virtual is the final virtual clock, max over ranks (valid after close).
func (rs *resident) virtual() float64 { return math.Max(rs.now[0], rs.now[1]) }

// answerCheckBatch sends the first checkBatch pool queries with ids
// 0..checkBatch-1 and checks each answer.
func (w *serveWL) answerCheckBatch(rs *resident, res *result) {
	failed := 0
	for i := 0; i < checkBatch && i < len(w.pool); i++ {
		r, err := rs.svc.Range(uint64(i), w.pool[i])
		if err != nil || r.Pairs != w.want[i] {
			failed++
		}
	}
	res.count(min(checkBatch, len(w.pool)), failed, "serve-range check batch")
}

// bootChecked boots, answers the check batch and closes: one set-up round.
// It returns the boot time and the final virtual clock.
func (w *serveWL) bootChecked(tr *tracer, parent int, res *result) (boot, virtual float64, rs *resident, ok bool) {
	rs = w.boot(tr, parent)
	w.answerCheckBatch(rs, res)
	if err := rs.close(); !res.check(err == nil, "serve-range boot: %v", err) {
		return 0, 0, rs, false
	}
	return rs.boot, rs.virtual(), rs, true
}

// run measures the end-to-end metrics: bootRounds checked boots, then a
// boot serving a closed loop of two clients and one serving the open loop
// at lowRate.
func (w *serveWL) run(cfg config, res *result) {
	var setups []float64
	var first float64
	for i := 0; i < bootRounds; i++ {
		debug.FreeOSMemory()
		boot, v, _, ok := w.bootChecked(nil, 0, res)
		if !ok {
			return
		}
		setups = append(setups, boot)
		if i == 0 {
			first = v
		} else {
			res.check(math.Float64bits(v) == math.Float64bits(first),
				"serve-range: virtual clock %.17g differs from first boot %.17g", v, first)
		}
	}

	// Each loop gets a boot of its own, so the open loop does not inherit
	// the per-request state the service recorded during the closed loop.
	window := cfg.window()
	closed := max(time.Duration(float64(window)*closedShare).Round(time.Second), time.Second)
	open := max(window-closed, time.Second)
	rs := w.boot(nil, 0)
	setups = append(setups, rs.boot)
	w.answerCheckBatch(rs, res)
	next := uint64(checkBatch)
	perSecond, n, failed := w.closedLoop(rs.svc, closed, &next)
	res.count(n, failed, "serve-range closed loop")
	err := rs.close()
	res.check(err == nil, "serve-range: %v", err)

	// The service only adds state while it serves (the index, then each
	// request's recorded charges and matches), so its live heap peaks at
	// the end of the window: measure it there, after a collection, above
	// the heap left before the boot.
	base := heapBaseline()
	rs = w.boot(nil, 0)
	setups = append(setups, rs.boot)
	w.answerCheckBatch(rs, res)
	next = checkBatch
	ol := w.openLoop(rs.svc, lowRate, open, &next)
	res.count(len(ol.lat), ol.failed, "serve-range open loop")
	peak := float64(heapBaseline()-base) / 1e6
	err = rs.close()
	res.check(err == nil, "serve-range: %v", err)

	res.set("setup_s", "s", median(setups))
	res.set("input_mbps", "MB/s", float64(w.r.file.Size())/1e6/median(setups))
	res.set("virtual_s", "s", first)
	res.set("peak_heap_mb", "MB", peak)
	res.set("qps", "1/s", median(perSecond))
	res.set("lat_p50_us", "us", quantile(ol.lat, 0.5))
	fmt.Fprintf(cfg.out, "serve-range: boot median %.4fs, closed loop %d requests in %v, open loop %d requests at %d/s: "+
		"latency p90 %.0fus p99 %.0fus, generator late p50 %.0fus p99 %.0fus\n",
		median(setups), n, closed, len(ol.lat), lowRate, quantile(ol.lat, 0.9), quantile(ol.lat, 0.99),
		quantile(ol.late, 0.5), quantile(ol.late, 0.99))
}

// closedLoop runs closedClients goroutines, each sending its next request as
// soon as the previous one answers, for d. Request ids come from next. It
// returns the completions per whole second of the loop, and the requests
// and oracle failures in total.
func (w *queryStream) closedLoop(svc *serve.Service, d time.Duration, next *uint64) (perSecond []float64, n, failed int) {
	start := time.Now()
	deadline := start.Add(d)
	done := make([][]time.Duration, closedClients)
	bad := make([]int, closedClients)
	var wg sync.WaitGroup
	for c := 0; c < closedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				id := atomic.AddUint64(next, 1) - 1
				qi := int(id % uint64(len(w.pool)))
				r, err := svc.Range(id, w.pool[qi])
				done[c] = append(done[c], time.Since(start))
				if err != nil || r.Pairs != w.want[qi] {
					bad[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	perSecond = make([]float64, int(d/time.Second))
	for c := range done {
		n += len(done[c])
		failed += bad[c]
		for _, t := range done[c] {
			if s := int(t / time.Second); s < len(perSecond) {
				perSecond[s]++
			}
		}
	}
	return perSecond, n, failed
}

// openLoopOut is one open-loop measurement, in microseconds.
type openLoopOut struct {
	lat    []float64 // answer time minus due time, per request
	late   []float64 // send time minus due time, per request
	failed int
}

// openLoop offers rate requests per second for d from one generator
// goroutine. Request i is due at start + i/rate; on each wake the
// generator sends every request that is due, each on its own goroutine,
// then sleeps until the next due time. Latency is measured from the due
// time, so the generator's own lateness is inside it and also reported
// separately.
func (w *queryStream) openLoop(svc *serve.Service, rate float64, d time.Duration, next *uint64) openLoopOut {
	n := int(rate * d.Seconds())
	out := openLoopOut{lat: make([]float64, n), late: make([]float64, n)}
	bad := make([]bool, n)
	interval := time.Duration(float64(time.Second) / rate)
	base := *next
	*next += uint64(n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; {
		now := time.Since(start)
		for ; i < n && time.Duration(i)*interval <= now; i++ {
			due := time.Duration(i) * interval
			out.late[i] = float64(now-due) / 1e3
			wg.Add(1)
			go func(i int, due time.Time) {
				defer wg.Done()
				id := base + uint64(i)
				qi := int(id % uint64(len(w.pool)))
				r, err := svc.Range(id, w.pool[qi])
				out.lat[i] = float64(time.Since(due)) / 1e3
				bad[i] = err != nil || r.Pairs != w.want[qi]
			}(i, start.Add(due))
		}
		if i < n {
			time.Sleep(time.Duration(i)*interval - time.Since(start))
		}
	}
	wg.Wait()
	for _, b := range bad {
		if b {
			out.failed++
		}
	}
	return out
}
