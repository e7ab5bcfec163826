"""Kernel backend registry: one interface for every sweep kernel.

Every stage of the pipeline performs the same abstract operation — sweep
rows ``i..j`` of the DP matrix given boundary state, producing H/E/F
rows, taps, saved rows and best/watch observables — and
:class:`~repro.align.rowscan.RowSweeper` defines that interface.  This
module hoists the *choice* of implementation out of the call sites: a
backend is a named factory producing a RowSweeper-compatible object, and
every sweep is built as ``get_backend(config.kernel).make(...)``.

Built-in backends:

* ``rowscan`` — the serial reference: the prefix-max E scan row by row
  (:class:`~repro.align.rowscan.RowSweeper`), in a C loop compiled at
  first use, or in NumPy on hosts without a C compiler.
* ``batched`` — rowscan with a leading batch axis
  (:class:`~repro.align.batched.BatchedRowSweeper`): K independent
  pairs per NumPy dispatch, the AnySeq/SaLoBa many-alignments-per-launch
  schedule on host arrays.  Registered as the single-pair facade; the
  multi-lane entry points are ``sweep_lanes``/``sweep_batched``.

The contract every backend must honour is **bit-identity**: identical
H/E/F rows, ``best``/``best_pos``, ``watch_hit``, saved rows, taps,
``cells`` and ``state_dict`` checkpoints for every input the reference
kernel accepts.  The conformance suite (``tests/test_kernel_backends.py``)
enforces this for every registered backend; see docs/API.md "Kernel
backends".

Builtins other than ``rowscan`` load lazily: a backend registers itself
when its module is first imported.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.align.rowscan import RowSweeper
from repro.align.scoring import ScoringScheme


@dataclass(frozen=True)
class KernelBackend:
    """One registered sweep kernel.

    Attributes:
        name: registry key (``--kernel`` / ``PipelineConfig.kernel``).
        factory: callable with :class:`RowSweeper`'s signature returning
            a RowSweeper-compatible sweeper.
        batch: the backend's module exposes multi-lane fused sweeps
            (``sweep_lanes``/``sweep_batched``) that advance many
            independent sweepers per dispatch; consumers such as the
            service micro-batcher select batch-capable kernels by this
            flag rather than by name.
        description: one line for ``--help`` and the benchmark ledger.
    """

    name: str
    factory: Callable[..., RowSweeper]
    batch: bool = False
    description: str = ""

    def make(self, codes0: np.ndarray, codes1: np.ndarray,
             scheme: ScoringScheme, **kwargs) -> RowSweeper:
        """Build a sweeper; ``kwargs`` are :class:`RowSweeper`'s."""
        return self.factory(codes0, codes1, scheme, **kwargs)


_REGISTRY: dict[str, KernelBackend] = {}

#: Builtins resolve lazily: importing the named module registers the
#: backend.
_BUILTIN_MODULES = {
    "rowscan": "repro.align.kernels",
    "batched": "repro.align.batched",
}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend to the registry (duplicate names are an error)."""
    if backend.name in _REGISTRY:
        raise ConfigError(f"kernel backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend
    return backend


def _load_builtins() -> None:
    for name, module in _BUILTIN_MODULES.items():
        if name not in _REGISTRY:
            importlib.import_module(module)


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by name, importing a builtin on first use."""
    if name not in _REGISTRY and name in _BUILTIN_MODULES:
        importlib.import_module(_BUILTIN_MODULES[name])
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown kernel backend {name!r}; registered backends: "
            f"{list(backend_names())}") from None


def backend_names() -> tuple[str, ...]:
    """Every registered backend name (builtins included), sorted."""
    _load_builtins()
    return tuple(sorted(_REGISTRY))


register_backend(KernelBackend(
    name="rowscan",
    factory=RowSweeper,
    description="the serial reference kernel: prefix-max E scan per row "
                "in a compiled C loop (NumPy body without a C compiler)"))
