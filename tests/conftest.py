"""Shared fixtures and parameter-space helpers for the test suite."""

import ctypes

import numpy as np
import pytest

from filver.cli import pin_allocator
from filver.config import openblas_libraries
from filver.models import ClassifierModel, ClassifierSpec, EncoderModel, EncoderSpec
from filver.numcore import ParamVector
from filver.rng import RngStream

from oracles import fd_flat


@pytest.fixture(scope="session", autouse=True)
def pinned_allocator():
    """The allocator policy the CLI sets for its own process (cli.main calls
    pin_allocator), so the suite's conv runs reuse heap pages as a real run
    does instead of faulting fresh ones in at every step."""
    pin_allocator()


@pytest.fixture
def one_blas_thread():
    """BLAS on one thread for the test, as the bit-identity claims assume.

    A threaded GEMM splits its operands between threads, so which rows take
    the kernel's tail path can depend on the operand's height: with two
    Haswell threads, 577 desk rows embedded 32 at a time differ from 512 at
    a time in three rows.
    """
    libs = openblas_libraries()
    if len(libs) != 1:
        yield
        return
    lib = ctypes.CDLL(libs[0])
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.restype = ctypes.c_int
    set_threads = lib.scipy_openblas_set_num_threads64_
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def fd_params(loss_fn, params: ParamVector, h=1e-6) -> ParamVector:
    """Central finite differences over every coordinate of a ParamVector."""
    return ParamVector(params.layout,
                       fd_flat(lambda f: loss_fn(ParamVector(params.layout, f)), params.flat, h))


def packed(grad: dict) -> np.ndarray:
    """A gradient dict's arrays raveled back to back, in the dict's order."""
    return np.concatenate([g.ravel() for g in grad.values()])


def jittered_params(model, rng: RngStream, scale=0.05) -> ParamVector:
    """Init params with every coordinate nudged off zero.

    Zero-initialized biases put ReLU pre-activations exactly on the kink,
    where finite differences are meaningless; the jitter moves them off it.
    """
    params = model.init_params(rng.child("init"))
    flat = params.flat + scale * rng.child("jitter").normal(params.flat.size)
    return ParamVector(params.layout, flat)


def min_abs_dense_pre(caches) -> float:
    """Smallest |pre-activation| across the dense caches of a layer stack."""
    low = np.inf
    for cache in caches:
        if isinstance(cache, tuple) and len(cache) == 4 and isinstance(cache[2], np.ndarray):
            low = min(low, float(np.abs(cache[2]).min()))
    return low


@pytest.fixture
def tiny_mlp_vee():
    spec = EncoderSpec("vee", (6,), embed_dim=4, arch="mlp", hidden=8)
    return EncoderModel(spec)


@pytest.fixture
def tiny_mlp_ebr():
    spec = EncoderSpec("ebr", (6,), embed_dim=4, arch="mlp", hidden=8)
    return EncoderModel(spec)


@pytest.fixture
def tiny_classifier():
    return ClassifierModel(ClassifierSpec(classes=3, hidden=8, layers=1), embed_dim=4)
