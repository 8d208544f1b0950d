#!/usr/bin/env python3
"""Tests of the simulator-cost benchmark, at reduced size.

    python3 perfbench/tests/test_perfbench.py [--binary PATH]

Without --binary the benchmark is first built into .bench_build/ the
way perfbench/run.py builds it. Every workload runs untraced on seeds
42 and 1337 and traced on seed 42, with --reduced volumes.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
WORKLOADS = ["nas_mpi_wan", "lossy_wan_bulk", "kv_quorum_pdes"]
SEEDS = [42, 1337]

# Every per-layer metric the traced run prints (README.md, "Per-layer
# metrics").
PER_LAYER = [
    "core.testbed_build_s",
    "sim.events", "sim.run_s", "sim.events_per_s", "sim.ns_per_event",
    "sim.pdes.windows", "sim.pdes.channel_msgs", "sim.pdes.tie_arrivals",
    "sim.pdes.events_per_window",
    "net.link.pkts_sent", "net.switch.pkts_forwarded",
    "net.wan.pkts_forwarded", "net.link.ns_per_pkt", "net.switch.ns_per_pkt",
    "net.wan.ns_per_pkt", "net.link.drops_fault",
    "ib.setup_s", "ib.rc.msgs_sent", "ib.rc.acks_sent",
    "ib.rc.pkts_retransmitted", "ib.rc.ns_per_msg_2k",
    "ib.rc.ns_per_msg_64k", "ib.ud.datagrams_sent",
    "mpi.job_setup_s", "mpi.run_s", "mpi.eager_sent", "mpi.rndv_sent",
    "mpi.unexpected",
    "tcp.segs_sent", "tcp.retransmits", "tcp.rto_fires",
    "tcp.sack_hole_retransmits", "tcp.ns_per_seg",
    "sdr.data_chunks_sent", "sdr.parity_chunks_sent",
    "sdr.retrans_chunks_sent", "sdr.chunks_repaired", "sdr.nacks_sent",
    "sdr.ns_per_chunk", "sdr.useful_chunk_ratio",
    "rpc.rdma.calls", "rpc.sdr.calls", "rpc.retries", "rpc.call_failures",
    "rpc.rdma.ns_per_call",
    "kv.preload_s", "kv.client.replica_calls", "kv.client.retries",
    "kv.client.read_repairs", "kv.replica.writes_stale", "kv.ok_ratio",
    "check.audit_s", "check.violations",
    "model.digest", "model.nas_ft_s", "model.nas_is_s", "model.nas_cg_s",
    "model.sdr_goodput_mbs", "model.tcp_goodput_mbs",
    "model.kv_goodput_kops", "model.kv_p99_us_binedge",
    "trace.overhead_s",
]

BINARY = None
RUNS = {}  # (workload, seed, traced) -> Run


class Run:
    def __init__(self, stdout, trace_file):
        lines = stdout.strip().splitlines()
        self.stdout = stdout
        self.result = json.loads(lines[-1])
        m = re.search(r"sim\.events (\d+)  model\.digest ([0-9a-f]{16})",
                      stdout)
        self.events = int(m.group(1))
        self.digest = m.group(2)
        self.trace_file = trace_file


def run(workload, seed, traced, tmpdir):
    key = (workload, seed, traced)
    if key not in RUNS:
        cmd = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", "1" if traced else "0",
               "--reduced"]
        trace_file = None
        if traced:
            trace_file = os.path.join(tmpdir, f"trace-{workload}.json")
            cmd += ["--trace-out", trace_file]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            raise AssertionError(f"{cmd} exited {proc.returncode}:\n"
                                 f"{proc.stderr}")
        RUNS[key] = Run(proc.stdout, trace_file)
    return RUNS[key]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def get(self, workload, seed=42, traced=False):
        return run(workload, seed, traced, self.tmp.name)

    def test_every_workload_passes_on_both_seeds(self):
        for w in WORKLOADS:
            for seed in SEEDS:
                with self.subTest(workload=w, seed=seed):
                    r = self.get(w, seed).result
                    self.assertTrue(r["correct"])
                    self.assertGreater(r["attempted"], 0)
                    self.assertEqual(r["failed"], 0)  # unit_fail_ratio 0
                    self.assertEqual(set(r["metrics"]),
                                     {"wall_s", "setup_s", "peak_rss_mb"})
                    for m in r["metrics"].values():
                        self.assertGreater(m["value"], 0)

    def test_digest_repeats_in_process_and_follows_the_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = self.get(w, 42)
                # "correct" includes the in-process check that every
                # repetition reproduced the first one's digest.
                self.assertRegex(a.stdout, r"untraced: ([3-9]|\d\d+) timed")
                self.assertTrue(a.result["correct"])
                b = self.get(w, 1337)
                self.assertNotEqual(a.digest, b.digest)

    def test_tracing_does_not_perturb_the_simulation(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                plain = self.get(w)
                traced = self.get(w, traced=True)
                self.assertTrue(traced.result["correct"])
                self.assertEqual(plain.events, traced.events)
                self.assertEqual(plain.digest, traced.digest)
                m = traced.result["metrics"]
                self.assertEqual(m["sim.events"]["value"], plain.events)
                self.assertEqual(int(m["model.digest"]["value"]),
                                 int(plain.digest, 16) >> 11)

    def test_pdes_witness_matches_sequential_engine(self):
        out = self.get("kv_quorum_pdes", traced=True).stdout
        m = re.search(r"one LP per site ([0-9a-f]{16}) / (\d+) events, "
                      r"sequential ([0-9a-f]{16}) / (\d+) events", out)
        self.assertIsNotNone(m)
        self.assertEqual(m.group(1), m.group(3))
        self.assertEqual(m.group(2), m.group(4))

    def test_every_per_layer_metric_is_emitted(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = [m["name"] for m in json.load(f)["per_layer"]]
        self.assertTrue(set(declared) <= set(PER_LAYER))
        for w in WORKLOADS:
            with self.subTest(workload=w):
                t = self.get(w, traced=True)
                printed = set(re.findall(r"^  (\S+)\s+\S+ \S+$", t.stdout,
                                         re.M))
                self.assertEqual(set(PER_LAYER) - printed, set())
                self.assertEqual(set(t.result["metrics"]), set(declared))

    def test_span_output_is_chrome_trace_json(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                path = self.get(w, traced=True).trace_file
                with open(path) as f:
                    doc = json.load(f)
                events = doc["traceEvents"]
                self.assertGreater(len(events), 0)
                names = {e["name"] for e in events}
                self.assertIn("core.testbed_build", names)
                self.assertIn("check.audit", names)
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    self.assertGreaterEqual(e["dur"], 0)
                    self.assertIn("parent", e["args"])


def main():
    global BINARY
    args = sys.argv[1:]
    if "--binary" in args:
        i = args.index("--binary")
        BINARY = os.path.abspath(args[i + 1])
        del args[i:i + 2]
    else:
        sys.path.insert(0, PERFBENCH)
        import run as bench_run  # perfbench/run.py
        if not bench_run.build():
            return 1
        BINARY = bench_run.BINARY
    prog = unittest.main(argv=[sys.argv[0]] + args, exit=False)
    return 0 if prog.result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
