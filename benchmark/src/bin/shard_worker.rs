//! The process-shard worker the `fleet_process_chaos` workload spawns:
//! `ShardBackend::Process` looks for a `shard_worker` binary next to
//! the running benchmark.

fn main() {
    std::process::exit(wm_fleet::shard_worker_main());
}
