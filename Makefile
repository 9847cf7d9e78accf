DUNE ?= dune
SINTRA = $(DUNE) exec bin/sintra_cli.exe --

# The seed-sweep campaigns (see "Seed-sweep campaigns" below) and the
# artifact prefix each writes.
CAMPAIGNS = faults link recov epoch svc
faults_ART = FAULTS
link_ART = FAULTS_LINK
recov_ART = RECOV
epoch_ART = EPOCH
svc_ART = BENCH_SVC

.PHONY: all build test fmt fmt-check bench bench-num bench-num-smoke bench-check bench-smoke tput tput-smoke tput-bless schedule-search check clean \
	$(CAMPAIGNS) $(CAMPAIGNS:%=%-smoke) $(CAMPAIGNS:%=%-bless)

all: build

build:
	$(DUNE) build

test:
	$(DUNE) runtest

fmt:
	$(DUNE) fmt

fmt-check:
	$(DUNE) build @fmt

# Full experiment sweep; writes one BENCH_<id>.json per experiment.  The
# kernel timings (experiments C1/C2) are `make bench-num`.
bench:
	$(DUNE) exec bench/main.exe

# The kernel benchmark, one ns_per_op{kernel,...} row per kernel timed
# by one loop: the bignum and modular-arithmetic kernels (the naive
# ladder against the one variable-base Straus loop, timed as pow_mod
# and as the two-base pow_multi_mod "exp2"; the fixed-base comb exp_g;
# mul, divmod, gcd, inv_mod, one Montgomery product), the DLEQ batch
# sweep and its gate, and the protocol kernels of experiments C1/C2
# (SHA-256, the oracle challenge, Schnorr, coin, TDH2, threshold RSA,
# the scheduler step); writes BENCH_NUM.json.
bench-num:
	$(SINTRA) bench-num
	$(SINTRA) bench-check BENCH_NUM.json

# Schema check of every BENCH_*.json in the working directory.
bench-check:
	$(SINTRA) bench-check

# Quick kernel micro-bench (including the DLEQ batch-verification
# sweep) to a scratch file, then bench-check (the envelope and every
# limited gate row).  Writes BENCH_NUM_SMOKE.json so the committed
# full-run BENCH_NUM.json is never clobbered with 0.02 s-window numbers;
# a quick run writes relaxed limits on its DLEQ rows (1.5x batch-8
# speedup, 2x per-share cost rise, against 3x and 1.25x).
bench-num-smoke:
	$(SINTRA) bench-num --quick --out BENCH_NUM_SMOKE.json
	$(SINTRA) bench-check BENCH_NUM_SMOKE.json

# Every experiment of bench/main.exe at reduced scale,
# then bench-check of what each wrote: the envelope and every claim row
# against its limit.  The same list runs in `dune runtest`.
SMOKE_EXPERIMENTS = F1 F2 E1 E2 G1 R1 R2 M1 O1 O2 S1 S2 TPUT
bench-smoke:
	$(DUNE) exec bench/main.exe -- --small $(SMOKE_EXPERIMENTS)
	$(SINTRA) bench-check $(SMOKE_EXPERIMENTS:%=BENCH_%.json)

# Throughput sweep: batching x pipelining on the R2 config (n=4, t=1);
# writes BENCH_TPUT.json (payloads/round, bytes/round, decided payloads
# per 1k sim steps, per-policy progress curves), then bench-check, which
# holds its "tput invariant breaks" row (zero-round rows, delivered
# counts out of range, falling progress) to its limit of 0.
tput:
	$(DUNE) exec bench/main.exe -- TPUT
	$(SINTRA) bench-check BENCH_TPUT.json

# CI-sized throughput sweep (24 payloads instead of 64) plus the same
# schema and invariant checks, then the regression diff against the
# blessed baseline (virtual-time metrics, byte-stable on an unchanged
# tree).
tput-smoke:
	$(DUNE) exec bench/main.exe -- --small TPUT
	$(SINTRA) bench-check BENCH_TPUT.json
	$(SINTRA) compare baselines/BENCH_TPUT_BASELINE.json BENCH_TPUT.json

# Re-bless the checked-in throughput baseline after an intentional
# behaviour change (same config as tput-smoke; commit the result).
tput-bless:
	$(DUNE) exec bench/main.exe -- --small TPUT
	mv BENCH_TPUT.json baselines/BENCH_TPUT_BASELINE.json

# Seed-sweep campaigns, one row each in the campaign table that
# `sintra run` reads (lib/faults/campaign_table.ml); each row names one
# Sweep.campaign value, and lib/faults/sweep.ml runs every one of them
# under the flight recorder, whose anomaly windows, counts and gate rows
# go into the campaign's own report:
#   faults  chaos policies x corruption mixes over ABBA and ABC, with
#           per-cell decided/decide-clock/steps/retransmit/peak rows
#   link    30% drop with the reliable link on (liveness-gating)
#   recov   crash-rejoin / partition-heal via certified state transfer
#   epoch   online proactive refresh and replica replacement
#   svc     closed-loop clients through the service request pipeline
# `make <c>` runs the full sweep; `make <c>-smoke` the CI-sized one and
# the regression diff against its blessed baseline (the artifacts derive
# from seeded virtual-time runs, so an unchanged tree reproduces the
# baseline); `make <c>-bless` re-blesses that baseline after an
# intentional behaviour change (commit the result).  Every
# `sintra run` checks the artifact it wrote as bench-check does and
# exits non-zero on an invalid artifact or a gate row past its limit.
$(CAMPAIGNS): %:
	$(SINTRA) run $*

$(CAMPAIGNS:%=%-smoke): %-smoke:
	$(SINTRA) run $* --quick --out SMOKE
	$(SINTRA) compare baselines/$($*_ART)_BASELINE.json $($*_ART)_SMOKE.json

$(CAMPAIGNS:%=%-bless): %-bless:
	$(SINTRA) run $* --quick --out BASELINE
	mv $($*_ART)_BASELINE.json baselines/

# Adversarial schedule search over the chaos step of a fault timeline
# (hill-climb, seeded) on one cell of the faults campaign: maximises
# steps-to-decide and the link back-pressure peak, archiving the worst
# schedules found as replayable sintra-schedule/3 fixtures (campaign,
# cell, timeline) under test/fixtures/worst_*.json; any campaign's cell
# replays from such a fixture.  Exits non-zero if any evaluated
# schedule ever cost safety.
schedule-search:
	$(SINTRA) search --objective decide-time --iters 12 --top 2 --out-dir test/fixtures
	$(SINTRA) search --objective buffer-peak --iters 12 --top 2 --link --out-dir test/fixtures

# Aggregate CI gate: build, unit/property tests, and every smoke sweep,
# including the kernel micro-bench with its batch-verification gate and
# the regression diffs against the blessed baselines.
check: build test bench-smoke bench-num-smoke tput-smoke $(CAMPAIGNS:%=%-smoke)

clean:
	$(DUNE) clean
	rm -f BENCH_*.json FAULTS_*.json RECOV_*.json EPOCH_*.json
