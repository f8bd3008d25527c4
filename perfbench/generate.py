"""Pinned, seeded instance generator for the benchmark workloads.

Everything the program under test receives is drawn here from the workload
seed, with numpy's PCG64 stream, and written to disk as plain inputs: arrays
plus a JSON manifest, or scenario files for `run-record`.  The generator
deliberately does not import the package's own random helpers, so that
moving or changing them cannot change the benchmark's inputs.

Why each workload draws A the way it does:

* run-record (generated files): A = 2 I + 0.3 N(0, 1) / sqrt(n), which keeps
  every singular value near 2.  Conditioning, not luck of the draw, fixes the
  step count, so recording cost per op is comparable across seeds.
* certify: A uniform in [-1, 1] with no sigma floor, the package's own random
  family.  These drift matrices are all non-defective in theory; at this
  commit the rank test calls some of them defective.  They are kept as drawn
  and never redrawn, so that false verdict shows in the failure count.
* plan-d4000: the dim-4000 plan of the size ladder's top rung; A is the
  well-conditioned family, though only the plan's shape matters.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOAD_IDS = {
    "run-record": 2,
    "certify": 4,
    "plan-d4000": 5,
}

# run-record: generated scenario files at dim 320 (m = n = 40, 4 x 4 agents).
RECORD_GENERATED = 3
# certify: 40 dim-320 instances, then one dim-1600 one; schemes alternate.
# One large instance keeps a pass near seven seconds, so a run holds three.
CERTIFY_SMALL_PER_LARGE = 40
CERTIFY_LARGE = 1

BUNDLED_SCENARIOS = ("identity_pair", "three_cluster_5x5")


def rng_for(workload: str, seed: int, index: int) -> np.random.Generator:
    """Independent stream per (workload, seed, instance index)."""
    return np.random.default_rng([WORKLOAD_IDS[workload], seed, index])


def connected_edges(rng: np.random.Generator, nodes: int, extra_edge_prob: float) -> list:
    """Random spanning tree plus independent extra edges."""
    order = rng.permutation(nodes)
    edges = []
    for idx in range(1, nodes):
        parent = order[int(rng.integers(0, idx))]
        edges.append(sorted((int(order[idx]), int(parent))))
    for a in range(nodes):
        for b in range(a + 1, nodes):
            if rng.random() < extra_edge_prob:
                edges.append([a, b])
    return sorted({tuple(e) for e in edges})


def ring_edges(nodes: int) -> list:
    """Cycle on `nodes` nodes (a single edge for two nodes, none for one)."""
    if nodes < 3:
        return [(0, 1)] if nodes == 2 else []
    return [tuple(sorted((i, (i + 1) % nodes))) for i in range(nodes)]


def composition(rng: np.random.Generator, total: int, parts: int) -> list:
    """Split total into `parts` positive integers."""
    if parts == 1:
        return [total]
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    return [int(v) for v in np.diff(np.concatenate(([0], cuts, [total])))]


def equal_split(total: int, parts: int) -> list:
    base = [total // parts] * parts
    for k in range(total - sum(base)):
        base[k] += 1
    return base


def well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    return 2.0 * np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)


def _instance(name, scheme, a, x_true, cluster_edges, agent_graphs, cluster_sizes, agent_sizes):
    return {
        "name": name,
        "scheme": scheme,
        "a": a,
        "b": a @ x_true,
        "x_true": x_true,
        "cluster_graph": {"nodes": len(cluster_sizes), "edges": [list(e) for e in cluster_edges]},
        "agent_graphs": [
            {"nodes": nodes, "edges": [list(e) for e in edges]} for nodes, edges in agent_graphs
        ],
        "cluster_sizes": [int(s) for s in cluster_sizes],
        "agent_sizes": [[int(s) for s in row] for row in agent_sizes],
    }


def _ring_instance(name, scheme, a, x_true, clusters, agents):
    """Instance on ring graphs with equal block sizes; dim = 2 * clusters * n."""
    m, n = a.shape
    big, small = (m, n) if scheme == "row" else (n, m)
    return _instance(
        name,
        scheme,
        a,
        x_true,
        ring_edges(clusters),
        [(agents, ring_edges(agents))] * clusters,
        equal_split(big, clusters),
        [equal_split(small, agents)] * clusters,
    )


def _random_family_instance(rng, name, scheme, a, clusters, agents, extra_edge_prob=0.5):
    """Random compositions and random connected graphs, as the package's own
    random family draws them, with fixed cluster and agent counts."""
    m, n = a.shape
    x_true = rng.uniform(-1.0, 1.0, size=n)
    big, small = (m, n) if scheme == "row" else (n, m)
    cluster_sizes = composition(rng, big, clusters)
    agent_sizes = [composition(rng, small, agents) for _ in range(clusters)]
    cluster_edges = connected_edges(rng, clusters, extra_edge_prob)
    agent_graphs = [(agents, connected_edges(rng, agents, extra_edge_prob)) for _ in range(clusters)]
    return _instance(name, scheme, a, x_true, cluster_edges, agent_graphs, cluster_sizes, agent_sizes)


def certify(seed: int) -> list:
    out = []
    sizes = ([(40, 4, 4)] * CERTIFY_SMALL_PER_LARGE + [(100, 8, 8)]) * CERTIFY_LARGE
    for k, (n, clusters, agents) in enumerate(sizes):
        rng = rng_for("certify", seed, k)
        scheme = ("row", "column")[k % 2]
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        out.append(_random_family_instance(rng, f"ce{k:02d}-{scheme}-n{n}", scheme, a, clusters, agents))
    return out


def plan_d4000(seed: int) -> dict:
    rng = rng_for("plan-d4000", seed, 0)
    a = well_conditioned(rng, 200)
    return _ring_instance("d4000-row", "row", a, rng.uniform(-1.0, 1.0, size=200), 10, 10)


def record_scenarios(seed: int) -> list:
    """Generated dim-320 scenario dicts (row layout, square, ring graphs)."""
    out = []
    for k in range(RECORD_GENERATED):
        rng = rng_for("run-record", seed, k)
        a = well_conditioned(rng, 40)
        inst = _ring_instance(f"gen{k}", "row", a, rng.uniform(-1.0, 1.0, size=40), 4, 4)
        scenario = {
            "scheme": "row",
            "A": a.tolist(),
            "b": inst["b"].tolist(),
            "cluster_graph": inst["cluster_graph"],
            "agent_graphs": inst["agent_graphs"],
            "layout": {"cluster_sizes": inst["cluster_sizes"], "agent_sizes": inst["agent_sizes"]},
            "b_offsets": None,
            "sim": {"step_size": "auto", "max_time": 8000.0, "stationarity_tol": 1e-10, "record_every": 5},
        }
        out.append((inst["name"], scenario, inst["x_true"]))
    return out


def write_inputs(workload: str, seed: int, out_dir: Path) -> Path:
    """Write the workload's inputs under out_dir and return the manifest path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "instances": [], "scenarios": []}
    arrays = {}
    if workload == "run-record":
        bundled = Path(__file__).resolve().parent / "scenarios"
        for stem in BUNDLED_SCENARIOS:
            data = json.loads((bundled / f"{stem}.json").read_text())
            data["sim"]["record_every"] = 5
            path = out_dir / f"{stem}.json"
            path.write_text(json.dumps(data))
            manifest["scenarios"].append({"name": stem, "file": path.name, "x_true": None})
        for name, data, x_true in record_scenarios(seed):
            path = out_dir / f"{name}.json"
            path.write_text(json.dumps(data))
            manifest["scenarios"].append({"name": name, "file": path.name, "x_true": x_true.tolist()})
    else:
        instances = {
            "certify": certify,
        }[workload](seed)
        for k, inst in enumerate(instances):
            for key in ("a", "b", "x_true"):
                arrays[f"{k}.{key}"] = inst.pop(key)
            manifest["instances"].append(inst)
    d4000 = plan_d4000(seed)
    for key in ("a", "b", "x_true"):
        arrays[f"d4000.{key}"] = d4000.pop(key)
    manifest["d4000"] = d4000
    np.savez(out_dir / "arrays.npz", **arrays)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1))
    return path


def load_inputs(manifest_path: Path) -> dict:
    """Read a manifest written by write_inputs, with arrays restored."""
    manifest = json.loads(manifest_path.read_text())
    with np.load(manifest_path.parent / "arrays.npz") as arrays:
        for k, inst in enumerate(manifest["instances"]):
            for key in ("a", "b", "x_true"):
                inst[key] = arrays[f"{k}.{key}"]
        for key in ("a", "b", "x_true"):
            manifest["d4000"][key] = arrays[f"d4000.{key}"]
    for sc in manifest["scenarios"]:
        sc["path"] = manifest_path.parent / sc["file"]
        if sc["x_true"] is not None:
            sc["x_true"] = np.array(sc["x_true"])
    return manifest
