"""The same bytes on one core with one BLAS thread as on every core with two.

Each setting runs one small end-to-end script in a child process of its
own: a standard epoch, an FGSM-RS epoch, PGD-10 accuracy, and saliency,
IG-32, DeepLIFT and occlusion maps, all hashed into one digest. Only the
children's core sets and BLAS thread counts differ.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracmap

SCRIPT = """
import hashlib, os, sys

if sys.argv[1]:
    os.sched_setaffinity(0, {int(sys.argv[1])})

import numpy as np

from fracmap.attack import AttackConfig, adv_accuracy
from fracmap.attribution import OcclusionConfig, PathConfig, deeplift, integrated_gradients, occlusion, saliency
from fracmap.model import tiny_cnn
from fracmap.synth import SynthConfig, generate_dataset
from fracmap.tensor import Tensor
from fracmap.train import TrainConfig, adv_train, train

cfg = SynthConfig(height=32, width=32, bone_halfwidth=(3.0, 5.0), bone_halflen_frac=(0.34, 0.44))
ds = generate_dataset(seed=5, n=64, cfg=cfg)
fit = TrainConfig(epochs=1, seed=5)
standard = train(tiny_cnn(seed=5, input_shape=ds.image_shape), ds, fit).model
fgsm_rs = AttackConfig(epsilon=4 / 255, step_size=5 / 255, iters=1, random_start=True)
robust = adv_train(standard, ds, fgsm_rs, fit).model
x, zero = ds.images[0], Tensor(np.zeros(ds.image_shape))
digest = hashlib.sha256()
for model in (standard, robust):
    for name in sorted(model.params):
        digest.update(model.params[name].tobytes())
    digest.update(repr(adv_accuracy(model, ds, "test", AttackConfig(iters=10))).encode())
    maps = [
        saliency(model, x, 0),
        integrated_gradients(model, x, 0, PathConfig(zero, n_steps=32)),
        deeplift(model, x, 0, zero),
        occlusion(model, x, 0, OcclusionConfig()),
    ]
    for amap in maps:
        digest.update(amap.values.tobytes())
print(digest.hexdigest())
"""


def run_digest(core: str, blas_threads: int) -> str:
    """The script's digest, pinned to ``core`` (all cores if empty)."""
    src = str(Path(fracmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(blas_threads)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, core], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs at least 2 cores",
)
def test_one_core_and_one_blas_thread_give_the_bytes_of_every_core_and_two():
    one = run_digest(str(min(os.sched_getaffinity(0))), blas_threads=1)
    every = run_digest("", blas_threads=2)
    assert len(one) == 64
    assert one == every
