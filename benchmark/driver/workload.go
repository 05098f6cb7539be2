package main

import "time"

// workload is one named set of inputs and server flags. Names are
// fixed: issues cite them. BENCHMARK.json says why each exists.
type workload struct {
	name string
	// model is "toll" for `lrgen -model -replicas 4`, else a file
	// under benchmark/models.
	model string
	// skew selects the skew-churn generator; otherwise Linear Road.
	skew        bool
	partitionBy string
	shards      int
	// flags are the remaining `caesar` flags.
	flags []string
	// durable gives every pass a fresh server and a fresh
	// -durable-dir: a reused directory would dedup the re-fed stream.
	durable bool
	// period is the open-loop phase's wall time per tick, fixed in
	// the benchmark so that every commit is offered the same rate.
	period time.Duration
}

const lrPartition = "xway,dir,seg"

// One tick of Linear Road every 40 ms offers 108 600 events/s: 18 %
// of what `toll` sustains at the seed commit and 37 % of `toll-ci`.
// At the 30 ms the issue proposed, `toll-ci` queues whenever the box
// is noisy and its p99 spreads by 40 % between passes.
const lrPeriod = 40 * time.Millisecond

var workloads = []workload{
	{
		name: "toll", model: "toll", partitionBy: lrPartition, shards: 1, period: lrPeriod,
	},
	{
		name: "toll-ci", model: "toll", partitionBy: lrPartition, shards: 1, period: lrPeriod,
		flags: []string{"-baseline"},
	},
	{
		name: "ingest", model: "ingest.caesar", partitionBy: lrPartition, shards: 2, period: 10 * time.Millisecond,
	},
	{
		name: "toll-paced", model: "toll", partitionBy: lrPartition, shards: 2, period: lrPeriod,
	},
	{
		name: "skew-churn", model: "skewchurn.caesar", skew: true, partitionBy: "key", shards: 2, period: 2 * time.Millisecond,
	},
	{
		name: "toll-durable", model: "toll", partitionBy: lrPartition, shards: 1, period: lrPeriod, durable: true,
		flags: []string{"-checkpoint-interval", "16", "-wal-sync", "async"},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
