# The single committed verify recipe: builds every executable (CLI,
# server, bench, examples) and runs the full test suite, then a
# smallest-scale pass over every bench family (the harness itself is
# code that can rot).  Run before every merge.
.PHONY: verify build test fuzz bench-smoke bench-chaos bench-obs bench-approx bench-recover bench-fig8 bench-fig11

verify:
	dune build @all && dune runtest && $(MAKE) bench-smoke

build:
	dune build @all

test:
	dune runtest

# High-iteration frontend fuzz: random well-typed queries are printed to
# SQL and to s-expressions, re-parsed, and checked fingerprint-identical.
# The default runtest pass already runs 1000 iterations of each property;
# this gated target cranks it up (override with FUZZ=N).
FUZZ ?= 20000
fuzz:
	FRONTEND_FUZZ_COUNT=$(FUZZ) dune exec test/test_frontend.exe -- test fuzz

# Every bench family at the smallest scale — a CI guard, not a measurement.
bench-smoke:
	dune exec bench/main.exe -- smoke

# Failure-set acceptance run: DBLP D1–D5 at scales 1–32, min-of-5 phase
# times per point; writes the committed baseline for the bitmask
# failure sets (MSR against tracing at scale 32).
bench-fig8:
	dune exec bench/main.exe -- fig8 -json BENCH_PR13.json

# Schema-alternative sweep (Figure 11): min-of-5 per point, Q3 at scale
# 8 swept from 1 to 12 SAs with its alternatives widened, recording the
# tracing phase per SA and its marginal cost per added SA; writes the
# committed baseline for shared sub-plan tracing.
bench-fig11:
	dune exec bench/main.exe -- fig11 -json BENCH_PR14.json

# Budget-ladder acceptance run (exact vs sampled vs top-k vs combined
# at scales 32-256); writes the committed baseline for the approx PR.
bench-approx:
	dune exec bench/main.exe -- approx -json BENCH_PR9.json

# Stage-recovery acceptance run: checkpoint restore vs full lineage
# recompute, plus pipeline cost under a spill watermark; writes the
# committed baseline for the recovery PR.  (The bench-smoke rung above
# already runs this family at the smallest scale, which doubles as the
# spill smoke: explanations under a starvation watermark must match.)
bench-recover:
	dune exec bench/main.exe -- recover -json BENCH_PR10.json

# Gated chaos measurement (arms process-global fault sites, so it never
# runs as part of the default bench sweep).
bench-chaos:
	dune exec bench/main.exe -- chaos -json BENCH_PR5.json

# Gated telemetry-overhead measurement (flips the process-global log
# level and sink set, so it never runs as part of the default sweep).
bench-obs:
	dune exec bench/main.exe -- obs -json BENCH_PR6.json
