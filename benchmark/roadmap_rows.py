#!/usr/bin/env python3
"""Re-measure the ROADMAP baseline rows at the current commit.

    python3 benchmark/roadmap_rows.py

Prints one line per row: a training step (T=4, 64x64, dense edges, batch of
one: forward, loss and backward) with and without the temporal refiner, and
single-worker integrate time per mode and T on 64x64 corrupted ground truth.
Each figure is the median of a few repeats after one untimed call.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import changeseries as cs  # noqa: E402
from changeseries.synthgen import stack_probs  # noqa: E402


def median_ms(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def training_step_ms(refiner: bool) -> float:
    scene = cs.generate(cs.SceneSpec(seed=0, t_len=4))
    edges = cs.build_edge_set("dense", 4)
    model = cs.ChangeModel(
        cs.ModelConfig(temporal=cs.TemporalConfig() if refiner else None, seed=0)
    )

    def step():
        model.zero_grads()
        seg_o, ch_o = model.forward(scene.images, edges)
        _, d_seg, d_ch, _ = cs.multitask_loss(seg_o, scene.seg_labels, ch_o, scene.change_stack(edges))
        model.backward(d_seg, d_ch)

    return median_ms(step, 5)


def fusion_ms(mode: str, t_len: int) -> float:
    scene = cs.generate(cs.SceneSpec(seed=0, t_len=t_len))
    seg, ch = cs.corrupt_to_probabilities(scene, 0.45, 0.25, seed=1)
    edges = cs.build_edge_set(mode, t_len)
    probs = stack_probs(ch, edges)
    repeats = 1 if mode == "dense" and t_len >= 12 else 3
    return median_ms(lambda: cs.integrate(seg, probs, edges, mode), repeats)


def main() -> int:
    for refiner in (True, False):
        print(f"training step, refiner {'on' if refiner else 'off'}: {training_step_ms(refiner):.0f} ms")
    for mode, lengths in (("dense", (8, 10, 12)), ("cyclic", (8, 10, 12)), ("adjacent", (8, 12, 20))):
        for t_len in lengths:
            print(f"integrate {mode} T={t_len} 64x64: {fusion_ms(mode, t_len):.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
