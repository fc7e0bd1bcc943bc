"""Convergence survey of the inputs the timed workloads leave out.

    python3 perfbench/survey.py identify --draws 120
    python3 perfbench/survey.py control --draws 8

identify: planted truths over the wide box beta_I in [0.3, 0.5],
A0 in [0.08, 0.16], I0 in [0.05, 0.11] at M = 1000 (max_iters 40), with the
converged share per I0/A0 band.  control: neighbours of control_binding at
M = 400 with Lhat, xi and x0 (A, I, L) each scaled by 1 +- amplitude.
Each row is one sailr CLI task; nothing is timed.  This shows where the
solvers fail at this commit, which is why the timed workloads stay inside
I0/A0 <= 0.6 and on the shipped control problem.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from sailr import cli  # noqa: E402


def _run(kind: str, doc: dict, tmp: Path) -> dict:
    path = tmp / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([kind, "--scenario", str(path), "--out", str(tmp / "out"), "--quiet"])
    with open(tmp / "out" / "summary.json", encoding="utf-8") as fh:
        return dict(json.load(fh), exit=code)


def identify(draws: int, tmp: Path):
    from sailr.integrate import Grid
    from sailr.model import CoefficientTable
    from sailr.scenario import SynthSpec, scenario_from_dict, synth_observations
    base = workloads.shipped_scenario("identify_synthetic.json")
    base["grid"]["M"] = 1000
    base["solver"]["max_iters"] = 40
    params = scenario_from_dict(dict(base, task="identify")).params
    bands = {}
    print("beta_I   A0      I0      I0/A0  exit iterations")
    for i in range(draws):
        rng = random.Random(f"survey-identify:{i}")
        b, a, c = rng.uniform(0.3, 0.5), rng.uniform(0.08, 0.16), rng.uniform(0.05, 0.11)
        obs, _ = synth_observations(SynthSpec(
            params=params, grid=Grid(0.0, 2.0, 1000), beta_I_true=CoefficientTable.constant(b),
            A0_true=a, I0_true=c, L0=0.02, R0=0.01))
        doc = dict(base, observations={"L0": obs.L0, "R0": obs.R0, "LT": obs.LT,
                                       "RT": obs.RT, "T": obs.T})
        s = _run("identify", doc, tmp)
        print(f"{b:.4f}  {a:.4f}  {c:.4f}  {c / a:.3f}  {s['exit']}    {s['iterations']}",
              flush=True)
        band = min(int(c / a / 0.2), 6)
        ok, n = bands.get(band, (0, 0))
        bands[band] = (ok + (s["exit"] == 0), n + 1)
    for band in sorted(bands):
        ok, n = bands[band]
        print(f"I0/A0 in [{0.2 * band:.1f}, {0.2 * band + 0.2:.1f}): {ok}/{n} converged")


def control(draws: int, amplitude: float, tmp: Path):
    base = workloads.shipped_scenario("control_binding.json")
    ref = workloads.CONTROL_REFERENCE["full"]
    print("Lhat      xi        exit sweeps  lA        lI        violation  |dl| to shipped")
    for i in range(draws):
        rng = random.Random(f"survey-control:{i}")
        doc = json.loads(json.dumps(base))
        doc["penalty"]["Lhat"] *= 1 + amplitude * rng.uniform(-1, 1)
        doc["params"]["xi"] *= 1 + amplitude * rng.uniform(-1, 1)
        for c in ("A", "I", "L"):
            doc["x0"][c] *= 1 + amplitude * rng.uniform(-1, 1)
        doc["x0"]["S"] = 1.0 - sum(doc["x0"][c] for c in ("A", "I", "L", "R"))
        s = _run("control", doc, tmp)
        lA, lI = s["controls"]["lA"], s["controls"]["lI"]
        dist = max(abs(lA - ref["lA"]), abs(lI - ref["lI"]))
        print(f"{doc['penalty']['Lhat']:.6f}  {doc['params']['xi']:.6f}  {s['exit']}    "
              f"{s['runtime']:<6d}  {lA:.6f}  {lI:.6f}  {s['constraint_violation']:.3e}  "
              f"{dist:.3e}", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload", choices=("identify", "control"))
    ap.add_argument("--draws", type=int, default=8)
    ap.add_argument("--amplitude", type=float, default=0.01)
    args = ap.parse_args()
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        if args.workload == "identify":
            identify(args.draws, Path(tmp))
        else:
            control(args.draws, args.amplitude, Path(tmp))


if __name__ == "__main__":
    main()
