.PHONY: all build test bench bench-smoke bench-diff fabric-smoke mcheck-native native-lin-smoke profile soak-smoke soak telemetry-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# The full evaluation at the default reduced scale (see README).
bench:
	dune exec bench/main.exe

# A minutes-scale subset for CI: figure 3 only, tiny pair counts, and
# the instrumented native-queue metrics — still exercising every layer
# that feeds BENCH_queues.json.  Also emits the cycle-attribution
# profile section on its own as profile.json, the live-memory axis
# (bytes/element, reclamation lag) as memory.json, and the fabric
# section (shard scaling, open-loop latency under load) as fabric.json.
bench-smoke:
	dune build bench/main.exe
	MSQ_SMOKE=1 MSQ_JSON=BENCH_queues.json dune exec bench/main.exe -- --profile-out profile.json --memory-out memory.json --fabric-out fabric.json

# Gate a fresh smoke run against the committed baseline: the
# deterministic simulator metric (net cycles/pair) must not regress by
# more than 10%.  Native wall-clock numbers are reported but never gate.
bench-diff: bench-smoke
	dune exec bin/msq_check.exe -- bench-diff bench/BASELINE_smoke.json BENCH_queues.json --max-regress 10

# The fabric acceptance gates at smoke scale: >=3x simulated
# aggregate-throughput scaling at 8 shards, disjoint per-shard writer
# sets in the heatmap, and open-loop sojourn p999 within the (CI-wide)
# SLO at each offered load.  Exit 1 if any gate fails.
fabric-smoke:
	dune exec bin/msq_check.exe -- fabric --seed 4011 --arrivals 2000 \
	  --pairs 2000 --load 20000 --load 50000 --json fabric-check.json

# Exhaustive small-scope model checking of the NATIVE queues: the
# shipping lib/core functors instantiated with a traced atomic, every
# interleaving within the preemption budget checked for conservation
# and linearizability.  --self-test also runs every mutant (one planted
# bug per battery queue, generated from the shipping text by the table
# in lib/mcheck/dune) and fails unless the checker catches each one.
mcheck-native:
	dune exec bin/msq_check.exe -- mcheck-native --depth-limit 10000 \
	  --self-test --trace-out mcheck-counterexample.txt

# Linearizability of the native queues across real domains: one
# unbounded queue, the batch-capable segmented queue (batch rounds
# included), the bounded SCQ ring (full verdicts checked against the
# bounded spec) and the fabric's single-key projection, each plain and
# under seeded chaos delays.  Exit 1 on any non-linearizable history.
native-lin-smoke:
	dune build bin/msq_check.exe
	set -e; for q in ms segmented scq fabric; do \
	  dune exec bin/msq_check.exe -- native-lin -q $$q; \
	  dune exec bin/msq_check.exe -- native-lin -q $$q --chaos --seed 42; \
	done

# Where the cycles go: simulated cache-line heatmaps plus native
# per-site/per-phase contention profiles, on the terminal.
profile:
	dune exec bin/msq_check.exe -- profile --seed 0 -p 8 --native

# Minutes-scale fault-storm soak for CI: chaos delay storms, stalled
# hazard-pointer readers, and producer/consumer crash+restart over every
# native queue, plus the simulated crash+restart battery.  --self-test
# first soaks a deliberately broken queue and fails unless the
# conservation audit catches it (the oracle has teeth).  Exit 1 on any
# audit failure or watchdog expiry.
soak-smoke:
	dune exec bin/msq_check.exe -- soak --self-test --rounds 2 --ops 300 \
	  --deadline-s 45 --json soak.json --trace-out soak-failure.txt \
	  --flight-out soak-flight.json

# The longer nightly soak: more rounds, more operations, a wider
# wall-clock budget per queue.
soak:
	dune exec bin/msq_check.exe -- soak --self-test --rounds 8 --ops 2000 \
	  --deadline-s 300 --json soak.json --trace-out soak-failure.txt \
	  --flight-out soak-flight.json

# The telemetry acceptance gates: a planted soak failure must produce a
# non-empty Chrome-trace flight dump, the sampler timeline must validate
# under the schema-8 shape (with an OpenMetrics rendering), and flight
# recorder + sampler together must cost <=2% against a workload with
# realistic per-operation think time.  Writes timeline.json and
# flight-dump.json.  Exit 1 if any gate fails.
telemetry-smoke:
	dune exec bin/msq_check.exe -- telemetry --flight-out flight-dump.json \
	  --timeline-out timeline.json

clean:
	dune clean
	rm -f BENCH_queues.json profile.json memory.json fabric.json \
	  fabric-check.json mcheck-counterexample.txt soak.json soak-failure.txt \
	  soak-flight.json timeline.json flight-dump.json
