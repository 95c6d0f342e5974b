#!/bin/sh
# Race-detector smoke over the concurrent planner paths: concurrent
# Algorithm 1 probes (golden trajectories at every probe fan), the
# parallel sweep, obs counting, serving churn and body aliases, blocked
# tables and long-chain coarsening. scripts/verify.sh and `make race`
# both run this one list. Usage: scripts/race_smoke.sh
set -eu

cd "$(dirname "$0")/.."

go test -race -timeout 20m -run 'TestPlanAllocationParallel|TestDenseMatchesMapDP|TestCertReuseMatchesColdProbes|TestPlanTrajectoriesGolden|TestSweepParallelDeterministic|TestSweepDominance|TestObsOnOffIdenticalPlan|TestConcurrentCountingExact|TestWarmAcrossCellsMatchesCold|TestWarmPlanAndScheduleMatchesCold|TestWarmParallelSearchMatchesCold|TestHintMatchesColdAcrossGrid|TestHintParallelSearchMatchesCold|TestFrontierMatchesColdPerCell|TestFrontierSamplingMatchesPerCell|TestPlanCtxLiveMatchesBackground|TestServeChurnBitIdentical|TestServeAliasConcurrent|TestServeQueueFullSheds|TestBlockedTableRoundTrip|TestBlockedMatchesMapAtWidths|TestTransformerLongChainCoarsenPlan' \
	./internal/core/ ./internal/expt/ ./internal/obs/ ./internal/serve/
