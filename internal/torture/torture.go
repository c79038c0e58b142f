// Package torture is the seeded robustness harness behind `make tier3`.
// It is ONE driver — a seeded op generator, one oracle, one workload
// loop and one settle / post-recovery / verify tail — parameterised by
// two seams: the store under test and the nemesis that attacks it.
//
//	nemesis \ store    engine (engine.DB)    sharded (shardeddb.DB, 2–4 shards)
//	crash              tier-3, 50 seeds      tier-3, 50 seeds
//	transient          tier-3, 50 seeds      tier-3, 50 seeds
//	bitrot             tier-3, 50 seeds      tier-3, 50 seeds
//	enospc             tier-3, 50 seeds      tier-3, 50 seeds
//
// Every cell runs through the same code; `go test ./internal/torture`
// runs the matrix (TestTorture, subtests <nemesis>/<store>) and
// `go run ./cmd/torture -nemesis N -shards S -seed X` reproduces one
// seed of one cell.
//
// # The driver
//
// Every workload op is one batch of 1–4 Puts/Deletes over a small key
// universe plus, for every shard it touches (in ascending shard order),
// that shard's monotone cut marker set to the op index. On the engine
// store there is one shard and one marker, "@cut". On the sharded store
// ops routinely span shards and commit through two-phase commit. The
// oracle is the map of acknowledged state: an op enters it iff its
// Apply returned nil. In front of every op the driver spot-reads a
// random key against the oracle. A key is "loose" — old or new value
// accepted, until an acknowledged op rewrites it — only when it lies in
// a range a data_loss event declared lost (bitrot).
//
// A cross-shard op whose Apply failed may be past its commit point, so
// its fate is unknown until recovery resolves it. In the live-handle
// regimes (transient, bitrot, enospc) on the sharded store the harness
// then waits for Healthy, closes the store and reopens it on the same
// filesystem, and pins the op from its participants' cut markers: all
// at the op's index folds it into the oracle, none leaves it absent,
// and a mix is a TORN CROSS-SHARD BATCH. A failed single-shard op has
// no such doubt — the engine's contract is that a failed write stays
// gone — and the same reopen checks it: the op's keys and marker must
// read as absent on the healed live handle, and after the reopen the
// op must hold on no participant, or it is a FAILED WRITE RESURRECTED
// (the healed handle retires the log the failed write reached). The
// counters the contracts read, and the event buffer, carry on across
// such a reopen.
//
// After the workload the nemesis settles the store (crash: reopen on
// the crash image; the others: heal the SAME handle), and the shared
// tail runs: the store's keyspace must equal the oracle exactly (point
// reads of every oracle key, absence of every other universe key and
// of a never-written key, and one full ordered scan that must neither
// miss an oracle key nor show a phantom — which also proves no 2PC
// bookkeeping key leaks out of the reserved 0x00 namespace); it must
// then accept synced writes, including fresh cross-shard batches,
// flush, and verify again.
//
// # Nemesis contracts
//
// crash — the filesystem crashes at a random fs-op boundary under
// seeded fault rules (failed WAL / MANIFEST syncs — a cross-shard
// commit record is a shard WAL write like any other — failed SST
// creates, latency); any Apply or Flush error ends the
// workload early. One of three crash images is materialised by seed
// (clean: synced bytes only; partial-sync: a prefix of the unsynced
// tail; torn: that prefix with bit damage) and the store reopens on it.
//
//  1. Prefix durability. The recovered marker c_s of shard s identifies
//     the exact surviving prefix of the ops that touched s; the
//     recovered keyspace must equal the oracle's replay of those
//     prefixes — no phantom, lost, or corrupted values.
//  2. Sync floor. Every op acknowledged durable before the crash
//     snapshot froze must survive on all its participants. Durable at
//     ack means an explicit WAL sync, or any cross-shard commit (2PC
//     syncs its prepares and commit record regardless of the caller's
//     flag).
//  3. Crash ceiling. No c_s may exceed the last op submitted before
//     the snapshot froze (nothing from the future).
//  4. Cross-shard atomicity. A batch spanning shards survives on ALL
//     of its participants or on NONE, at any crash point under any
//     materialisation, however the crash interleaved with 2PC phases.
//  5. Recovery must succeed — torn WAL/MANIFEST tails truncate cleanly,
//     in-doubt transactions roll forward or abort — and the reopened
//     store's post-recovery writes must survive a second reopen and
//     still verify (MANIFEST roll-forward, batch IDs reissued from a
//     counter that restarted at the first reopen).
//
// At one shard clauses 2–4 reduce to "c ≥ last acked-synced op" and
// "c ≤ last op possibly in the image".
//
// transient — no crash, and no reopen but the one that pins a failed
// op on the sharded store, after the heal: 2–5 fault episodes arm at
// random ops, each a self-healing rule (FailNTimes / HealAfter) on WAL
// sync, MANIFEST sync, WAL create or SST create. Every fault either stays
// invisible (soft, retried in place) or fails the requesting write,
// after which the recovery worker must heal the SAME handle.
//
//  1. Zero acked-write loss. Every mutation whose Apply returned nil
//     reads back exactly, across any number of fault/recovery episodes.
//  2. Self-healing. After a failed write, and at the end of the
//     workload (leftover FailNTimes charges are cleared first: a rule
//     armed late may never have fired and is not self-healing), the
//     store must reach Healthy within a bounded wait and accept writes
//     again — on the original handle.
//  3. Honest failures. A failed Apply or Flush may only report the
//     injected fault or the background-error latch; recovery must
//     never give up on a transient fault; and if any hard error
//     latched, at least one recovery success is counted and the event
//     stream records a recovery begin before a recovery success.
//
// bitrot — the first half of the workload runs clean (with two forced
// flushes so SSTs exist), then rot arms on SST reads: transient (1–3
// bit-flipped reads of any SST, then clean — a bus hiccup) or, for 30 %
// of seeds, persistent (every read of one chosen file flips a bit — the
// media is dying). ParanoidFileChecks is drawn by seed and the scrubber
// runs unpaced so it races the reads. Spot reads rise to 30 %.
//
//  1. NO SILENT WRONG READS, ever. Every Get and every scanned pair
//     returns the oracle's value, a checksum / injected / background
//     error (point reads under rot only), or — only for keys inside a
//     range a data_loss event has explicitly declared lost — an honest
//     miss or a resurfaced older version.
//  2. Detection obliges resolution. If any file was quarantined,
//     recovery must end in a repair or an explicit data_loss
//     declaration — never a giveup — with a recovery begin before a
//     recovery success in the event stream, and the store must return
//     to Healthy on the same handle and accept writes again.
//
// enospc — 1–3 times the faultfs byte quota is squeezed below current
// usage (every write, create and sync fails with vfs.ErrNoSpace) and
// released by a kernel process that sleeps the squeeze's hold, the
// out-of-band operator freeing space: a squeeze can park the workload
// itself behind a full immutable queue, so an op-counted release would
// deadlock the harness. Half the seeds also run the space-budget
// accounting (MaxAllowedSpace, shared across shards). Spot reads rise
// to 25 % while squeezed.
//
//  1. Zero acked-write loss across any number of squeeze episodes.
//  2. Reads never block on a full disk: point lookups during a squeeze
//     and after a giveup must serve the acked state.
//  3. Self-healing. After a release the store returns to Healthy with
//     no reopen; a giveup after an unluckily slow scrape is tolerated
//     if a single Resume clears it. Whatever the quota rejected must
//     have been counted as ENOSPC.
//  4. Honest failures. A failed Apply may only report the quota error,
//     the background-error latch or an injected fault. A final squeeze
//     that is never released must end in a giveup within the bounded
//     attempt budget — not a hang, not a lie — with Health ≠ Healthy
//     and Apply failing honestly; once space returns one Resume must
//     heal the handle, space waits (disk-full recovery attempts that
//     found no space) and space recoveries must have been counted, and
//     the rejected "@poison" write must be absent from the final scan.
//
// # Reproducibility
//
// Every iteration runs inside one simulation kernel (internal/sim) on
// the environment the benchmarks and figures use: simulated 3D XPoint
// with the calibrated CPU cost model (simenv.New). The kernel runs one
// process at a time and decides every ordering, and the harness reads
// and sleeps only on the kernel clock — heal deadlines, enospc's
// release, injected latency and HealAfter are virtual time — so a seed
// replays exactly: the same batches, faults, crash point, engine state
// and verbose transcript, run after run, on any host.
package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"xpointdb/internal/batch"
	"xpointdb/internal/clock"
	"xpointdb/internal/engine"
	"xpointdb/internal/faultfs"
	"xpointdb/internal/simenv"
	"xpointdb/internal/storage"
)

const (
	// postCrashOps continues the workload this many ops past the crash
	// point, exercising the window where the live store has diverged
	// from the frozen disk image.
	postCrashOps = 60
	// postRecoveryOps is the number of synced writes the settled store
	// must accept (and, after a crash, keep across a second reopen).
	postRecoveryOps = 20
	// healTimeout bounds every wait for Healthy, in virtual time; every
	// fault heals, so a store that stays unhealthy has a broken recovery
	// path.
	healTimeout = 15 * time.Second
)

// Config parameterizes one torture iteration.
type Config struct {
	// Seed drives every random decision (workload, faults, crash
	// point, surviving-tail selection).
	Seed int64
	// Ops is the workload length (default 1200).
	Ops int
	// Keys is the key-universe size (default 240).
	Keys int
	// Nemesis is "crash" (the default), "transient", "bitrot" or
	// "enospc"; see the package comment for each contract.
	Nemesis string
	// Shards > 1 runs against a range-sharded store with that many
	// shards; 0 or 1 against a bare engine.
	Shards int
	// Logf, when set, receives verbose progress (e.g. t.Logf).
	Logf func(format string, args ...interface{})
}

// resolve fills defaults and rejects configurations that cannot run.
func (c Config) resolve() (Config, error) {
	if c.Ops <= 0 {
		c.Ops = 1200
	}
	if c.Keys <= 0 {
		c.Keys = 240
	}
	if c.Nemesis == "" {
		c.Nemesis = "crash"
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	if c.Shards < 0 || c.Shards > c.Keys {
		return c, fmt.Errorf("torture: %d shards cannot split a universe of %d keys", c.Shards, c.Keys)
	}
	return c, nil
}

// Repro is the command line that reruns exactly this iteration.
func (c Config) Repro() string {
	s := fmt.Sprintf("go run ./cmd/torture -seed %d", c.Seed)
	if c.Nemesis != "" && c.Nemesis != "crash" {
		s += " -nemesis " + c.Nemesis
	}
	if c.Shards > 1 {
		s += fmt.Sprintf(" -shards %d", c.Shards)
	}
	if c.Ops > 0 {
		s += fmt.Sprintf(" -ops %d", c.Ops)
	}
	if c.Keys > 0 {
		s += fmt.Sprintf(" -keys %d", c.Keys)
	}
	return s
}

// Run executes one seeded iteration and returns nil if the nemesis's
// contract held, or a detailed violation error.
func Run(cfg Config) error { return drive(cfg, newStore) }

// mut is one key mutation inside a workload op.
type mut struct {
	key, val string
	del      bool
}

// op is one submitted workload batch.
type op struct {
	muts         []mut
	participants []int // shards touched, ascending
	sync         bool
	// ackedDurable: Apply returned nil before the crash snapshot froze,
	// through a path that guarantees durability at ack (crash clause 2).
	ackedDurable bool
}

// run is the state of one iteration, shared by the driver and its
// nemesis.
type run struct {
	cfg   Config
	rng   *rand.Rand
	clk   clock.Clock // the kernel every process of the run is on
	ffs   *faultfs.FS
	st    store
	nem   nemesis
	phase string // labels violations: "live", then what the nemesis sets

	ops   []op
	live  map[string]string // the oracle: acknowledged state
	loose map[string]bool   // keys whose value the oracle cannot pin down
	// maxPossible is the last op submitted before the crash snapshot
	// froze; failed counts unacknowledged ops.
	maxPossible, failed int
}

func keyName(i int) string   { return fmt.Sprintf("k%03d", i) }
func (r *run) key() string   { return keyName(r.rng.Intn(r.cfg.Keys)) }
func (r *run) c() counters   { return r.st.counters() }
func (r *run) healthy() bool { return r.st.Health() == engine.Healthy }

// logCounters logs the settled run's failed ops and every counter the
// contracts read, and returns the counters.
func (r *run) logCounters() counters {
	c := r.c()
	r.cfg.Logf("%s: %d/%d ops failed; %+v", r.cfg.Nemesis, r.failed, r.cfg.Ops, c)
	return c
}

// violation renders a contract failure with full repro context.
func (r *run) violation(format string, args ...interface{}) error {
	return fmt.Errorf("torture seed %d (%s on %s, %s): DURABILITY VIOLATION: %s",
		r.cfg.Seed, r.cfg.Nemesis, r.st.describe(), r.phase, fmt.Sprintf(format, args...))
}

// storeMaker builds the store under test from the run's seeded
// configuration and the environment's base engine options.
type storeMaker func(cfg Config, rng *rand.Rand, base engine.Options, geo geometry, tune func(*engine.Options)) store

// drive runs one iteration as the main process of a fresh simulation.
func drive(cfg Config, mkStore storeMaker) error {
	cfg, err := cfg.resolve()
	if err != nil {
		return err
	}
	env := simenv.New(storage.XPoint())
	env.Kernel.Run(func() { err = iterate(cfg, env, mkStore) })
	return err
}

func iterate(cfg Config, env *simenv.Env, mkStore storeMaker) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ffs, err := faultfs.New(env.FS, env.Kernel, rng.Int63())
	if err != nil {
		return fmt.Errorf("torture seed %d: faultfs: %w", cfg.Seed, err)
	}
	geo := pickGeometry(rng)
	nem, err := newNemesis(cfg.Nemesis, rng)
	if err != nil {
		return err
	}
	r := &run{
		cfg: cfg, rng: rng, clk: env.Kernel, ffs: ffs, nem: nem, phase: "live",
		st:   mkStore(cfg, rng, env.Options, geo, nem.tune),
		live: map[string]string{}, loose: map[string]bool{}, maxPossible: -1,
	}
	if err := r.st.open(ffs); err != nil {
		return fmt.Errorf("torture seed %d: initial open: %w", cfg.Seed, err)
	}
	defer func() { _ = r.st.Close() }() // early returns; the tail checks its own Close
	cfg.Logf("store: %s", r.st.describe())
	nem.start(r) // faults arm only after the clean open

	// --------------------------------------------------------------
	// The workload.

	postCrash := 0
	for i := 0; i < cfg.Ops; i++ {
		if err := nem.before(r, i); err != nil {
			return err
		}
		// Reads must serve the acked state at all times, fault in
		// flight or not.
		if err := r.spot(nem.spotRate()); err != nil {
			return err
		}
		if rng.Float64() < 0.01 {
			if ferr := r.st.Flush(); ferr != nil {
				if stop, err := r.writeFailed(i, ferr); err != nil {
					return err
				} else if stop {
					break
				}
			}
		}
		o := r.genOp(i)
		b := r.batch(i, &o)
		r.ops = append(r.ops, o)
		// An op can reach the crash image only if the snapshot was not
		// yet frozen when its Apply began — even one whose Apply then
		// fails (e.g. a failed sync after the record hit the file).
		if !ffs.Crashed() {
			r.maxPossible = i
		}
		if werr := r.st.Apply(b, o.sync); werr != nil {
			r.failed++
			if stop, err := r.writeFailed(i, werr); err != nil {
				return err
			} else if stop {
				break
			}
			if r.st.shards() > 1 {
				if err := r.pin(i, &r.ops[i]); err != nil {
					return err
				}
			}
			continue
		}
		r.ack(i, &r.ops[i])
		if ffs.Crashed() {
			if postCrash++; postCrash > postCrashOps {
				break
			}
		}
	}

	// --------------------------------------------------------------
	// The tail: settle, verify, prove the store still makes durable
	// progress, verify again.

	r.phase = "settled"
	if err := nem.settle(r); err != nil {
		return err
	}
	if err := r.verify(); err != nil {
		return err
	}
	for i := 0; i < postRecoveryOps; i++ {
		o := op{sync: true}
		for j, n := 0, 1+rng.Intn(3); j < n; j++ {
			o.muts = append(o.muts, mut{key: r.key(), val: fmt.Sprintf("post-recovery-%d-%d-%d", cfg.Seed, i, j)})
		}
		idx := len(r.ops) + i
		if err := r.st.Apply(r.batch(idx, &o), o.sync); err != nil {
			return r.violation("settled store rejected write %d: %v", i, err)
		}
		r.ack(idx, &o)
	}
	if err := r.st.Flush(); err != nil {
		return r.violation("settled store flush failed: %v", err)
	}
	if err := r.verify(); err != nil {
		return err
	}
	if err := r.st.Close(); err != nil {
		return r.violation("close failed: %v", err)
	}
	return nem.finish(r)
}

// writeFailed handles an Apply or Flush error in front of or at op i:
// it must be one the nemesis may cause, and the nemesis decides whether
// the workload stops or the store must first heal.
func (r *run) writeFailed(i int, werr error) (stop bool, err error) {
	if !r.nem.honest(werr, false) {
		return false, r.violation("op %d failed with a foreign error: %v", i, werr)
	}
	if stop, err = r.nem.failed(r); stop {
		r.cfg.Logf("workload stopped at op %d/%d: %v", i, r.cfg.Ops, werr)
	}
	return stop, err
}

// genOp draws workload op i: 1–4 mutations, 20 % deletes, 25 % synced.
func (r *run) genOp(i int) op {
	o := op{sync: r.rng.Float64() < 0.25}
	for m, n := 0, 1+r.rng.Intn(4); m < n; m++ {
		k := r.key()
		if r.rng.Float64() < 0.2 {
			o.muts = append(o.muts, mut{key: k, del: true})
		} else {
			o.muts = append(o.muts, mut{key: k, val: fmt.Sprintf("v%06d-%s-%04d", i, k, r.rng.Intn(10000))})
		}
	}
	return o
}

// batch renders o as the batch submitted under index i — its mutations,
// then the cut marker of every shard they touch, in ascending shard
// order so the bytes are a function of the seed — and records the
// participants.
func (r *run) batch(i int, o *op) *batch.Batch {
	b := &batch.Batch{}
	touched := make([]bool, r.st.shards())
	for _, m := range o.muts {
		touched[r.st.shardOf(m.key)] = true
		if m.del {
			b.Delete([]byte(m.key))
		} else {
			b.Put([]byte(m.key), []byte(m.val))
		}
	}
	for s, t := range touched {
		if t {
			o.participants = append(o.participants, s)
			b.Put([]byte(r.st.marker(s)), []byte(strconv.Itoa(i)))
		}
	}
	return b
}

// ack folds acknowledged op i into the oracle; its keys are pinned
// down again.
func (r *run) ack(i int, o *op) {
	for _, m := range o.muts {
		if m.del {
			delete(r.live, m.key)
		} else {
			r.live[m.key] = m.val
		}
		delete(r.loose, m.key)
	}
	for _, s := range o.participants {
		mk := r.st.marker(s)
		r.live[mk] = strconv.Itoa(i)
		delete(r.loose, mk)
	}
	// Conservative: only count the ack if the crash snapshot was not
	// yet frozen when Apply returned.
	o.ackedDurable = (o.sync || len(o.participants) > 1) && !r.ffs.Crashed()
}

// pin settles op i after its Apply failed on a live handle of the
// sharded store (see the package comment): a single-shard op must read
// as absent on the live handle and stay absent across the reopen, which
// is retried while the nemesis's faults fail it honestly.
func (r *run) pin(i int, o *op) error {
	if err := r.waitHealthy(true); err != nil {
		return err
	}
	// A single-shard op: each of its keys, then its marker, on the live
	// handle.
	for j := 0; len(o.participants) == 1 && j <= len(o.muts); j++ {
		k := r.st.marker(o.participants[0])
		if j < len(o.muts) {
			k = o.muts[j].key
		}
		if err := r.read(k); err != nil {
			return err
		}
	}
	_ = r.st.Close() // what counts is that the store reopens
	err := r.st.open(r.ffs)
	for deadline := r.clk.Now().Add(healTimeout); err != nil; err = r.st.open(r.ffs) {
		if !r.nem.honest(err, false) || r.clk.Now().After(deadline) {
			return r.violation("reopen after failed op %d: %v", i, err)
		}
		r.clk.Sleep(time.Millisecond)
	}
	cut, err := r.cuts()
	if err != nil {
		return err
	}
	applied, err := r.held(i, o, cut)
	r.cfg.Logf("op %d: failed batch holds on %d of its %d participants after a reopen", i, applied, len(o.participants))
	switch {
	case err != nil:
		return err
	case applied > 0 && len(o.participants) == 1:
		return r.violation("FAILED WRITE RESURRECTED: op %d failed on shard %d but holds after a reopen (cuts %v)",
			i, o.participants[0], cut)
	case applied > 0:
		r.ack(i, o)
	}
	return nil
}

// cuts reads every shard's cut marker: the index of the last op on the
// shard that the store holds, -1 for none.
func (r *run) cuts() ([]int, error) {
	cut := make([]int, r.st.shards())
	for s := range cut {
		v, err := r.st.Get([]byte(r.st.marker(s)))
		switch {
		case errors.Is(err, engine.ErrNotFound):
			cut[s] = -1
		case err != nil:
			return nil, r.violation("reading shard %d cut marker: %v", s, err)
		default:
			if cut[s], err = strconv.Atoi(string(v)); err != nil {
				return nil, r.violation("shard %d cut marker corrupted: %q", s, v)
			}
		}
	}
	return cut, nil
}

// held counts the participants of op i whose cut covers it. A batch held
// by some of its participants only is a violation.
func (r *run) held(i int, o *op, cut []int) (int, error) {
	n := 0
	for _, s := range o.participants {
		if cut[s] >= i {
			n++
		}
	}
	if n != 0 && n != len(o.participants) {
		return n, r.violation("TORN CROSS-SHARD BATCH: op %d touched shards %v but survived on only %d of them (cuts %v)",
			i, o.participants, n, cut)
	}
	return n, nil
}

// replay is the oracle's view of a crash image: each mutation of op i
// survives iff i is within its shard's recovered prefix.
func (r *run) replay(cut []int) map[string]string {
	model := map[string]string{}
	for i, o := range r.ops {
		for _, m := range o.muts {
			switch {
			case i > cut[r.st.shardOf(m.key)]:
			case m.del:
				delete(model, m.key)
			default:
				model[m.key] = m.val
			}
		}
		for _, s := range o.participants {
			if i <= cut[s] {
				model[r.st.marker(s)] = strconv.Itoa(i)
			}
		}
	}
	return model
}

// spot reads one random key with probability p and compares it with
// the oracle.
func (r *run) spot(p float64) error {
	// Both draws happen regardless of p, which can depend on the store
	// (whether enospc's release has run yet): the workload must not.
	if roll, k := r.rng.Float64(), r.key(); roll < p {
		return r.read(k)
	}
	return nil
}

// read checks key k on the live handle against the oracle.
func (r *run) read(k string) error {
	v, err := r.st.Get([]byte(k))
	// The read's response: a loss declared by now may have overlapped
	// it, one declared later cannot excuse it.
	through := r.st.syncEvents()
	if err != nil && r.nem.honest(err, true) {
		return nil // honest detection; the nemesis's settle resolves it
	}
	if r.compare("Get", k, string(v), err) != nil {
		r.nem.absorb(r, through)
	}
	return r.compare("Get", k, string(v), err)
}

// compare is the one comparison of a read result against the oracle.
// err == nil means (key, got) was read; engine.ErrNotFound a miss.
func (r *run) compare(how, key, got string, err error) error {
	want, ok := r.live[key]
	switch {
	case r.loose[key]:
		// An honest miss, the old value and the new one are all
		// acceptable.
	case err != nil && !errors.Is(err, engine.ErrNotFound):
		return r.violation("%s(%q) failed: %v (oracle has %q, %v)\n%s", how, key, err, want, ok, r.st.layout())
	case !ok && err == nil:
		return r.violation("%s found phantom key %q = %q", how, key, got)
	case ok && err != nil:
		return r.violation("%s(%q) = ErrNotFound, want %q\n%s", how, key, want, r.st.layout())
	case ok && got != want:
		return r.violation("SILENT WRONG READ: %s(%q) = %q, want %q", how, key, got, want)
	}
	return nil
}

// verify checks the store's keyspace equals the oracle exactly, outside
// the loose set: point reads, absent keys, and a full ordered scan.
func (r *run) verify() error {
	probe := func(k string) error {
		v, err := r.st.Get([]byte(k))
		return r.compare("Get", k, string(v), err)
	}
	for k := range r.live {
		if err := probe(k); err != nil {
			return err
		}
	}
	for i := 0; i < r.cfg.Keys; i++ {
		if _, ok := r.live[keyName(i)]; !ok {
			if err := probe(keyName(i)); err != nil {
				return err
			}
		}
	}
	if err := probe("never-written"); err != nil {
		return err
	}

	seen := map[string]bool{}
	var bad error
	err := r.st.scan(func(k, v []byte) {
		seen[string(k)] = true
		if bad == nil {
			bad = r.compare("scan", string(k), string(v), nil)
		}
	})
	if bad != nil {
		return bad
	}
	if err != nil {
		return r.violation("scan error: %v", err)
	}
	for k := range r.live {
		if !seen[k] && !r.loose[k] {
			return r.violation("scan missed key %q", k)
		}
	}
	return nil
}

// waitHealthy polls until the store reports Healthy on every shard.
// With resume set it tolerates automatic recovery having given up by
// issuing a single manual Resume — the operator action a giveup exists
// to hand control to; the fault is already lifted when this is called,
// so either path must converge.
func (r *run) waitHealthy(resume bool) error {
	deadline := r.clk.Now().Add(healTimeout)
	for r.clk.Now().Before(deadline) {
		if r.healthy() {
			return nil
		}
		if resume && r.c().giveups > 0 {
			resume = false
			if err := r.st.Resume(); err != nil {
				return r.violation("Resume after the fault lifted failed: %v", err)
			}
		}
		r.clk.Sleep(200 * time.Microsecond)
	}
	return r.violation("store did not return to Healthy within %v: health=%v bgErr=%v",
		healTimeout, r.st.Health(), r.st.BackgroundError())
}
