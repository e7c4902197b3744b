"""The :class:`NoisePlan` IR: channel-aware lowering of noisy circuits.

The density-matrix simulator's historic noisy path walked the bound
circuit instruction by instruction, rebuilding every gate matrix and
every channel's Kraus operator list on each call, and never fused
anything — fusion was disabled entirely for noisy runs because a fused
:class:`~repro.compiler.ir.GatePlan` no longer exposes the per-physical-
gate sites a noise model attaches channels to.

A noise plan fixes that by lowering the *(circuit, noise model)* pair as
one unit. Its op stream interleaves two record kinds:

* :class:`~repro.compiler.ir.PlanOp` — a static unitary (noisy circuits
  are bound, so every gate has a concrete matrix, possibly the product of
  several fused source gates);
* :class:`ChannelOp` — a noise-channel site whose Kraus operators are
  pre-stacked into one ``(K, 2**k, 2**k)`` array, ready for the
  simulator's stacked-tensordot application.

Each channel site also pre-compiles its *superoperator*
``S = sum_m K_m (x) conj(K_m)`` — a ``(4**k, 4**k)`` matrix acting on the
site's combined ket/bra axes — so the simulator applies a whole channel
as ONE tensordot whose cost is independent of the number of Kraus
operators (a two-qubit depolarizing channel has 16 of them; the historic
loop paid 32 full-state contractions per site).

Channel-aware fusion then works at two levels:

* channel sites act as fusion barriers on their qubits, so static-gate
  runs *between* channels still fuse (the existing
  :func:`~repro.compiler.passes.fuse_static_ops` treats any op without a
  ``matrix`` as a barrier) — under noiseless gate kinds (e.g. virtual
  ``rz`` via ``gate_overrides={"rz": 0.0}``) the interleaved 1q runs
  collapse;
* a static unitary directly preceding a channel site *absorbs into* the
  site's Kraus stack (``K_m <- K_m @ U`` on the union support), so under
  a uniform per-gate noise model — where every gate carries a channel —
  each (gate, channel) pair still executes as a single contraction.

Plans are cached in the shared :data:`~repro.compiler.cache.PLAN_CACHE`
keyed by circuit content hash plus the noise model's
:meth:`~repro.noise.noise_model.NoiseModel.fingerprint`; models without a
fingerprint are still lowered, just never cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATES
from repro.compiler.cache import PLAN_CACHE, circuit_fingerprint
from repro.compiler.ir import PlanOp, kernel_class_of_matrix
from repro.compiler.passes import (
    MAX_FUSION_SUPPORT,
    _expand_matrix,
    fuse_static_ops,
)


def kraus_superoperator(kraus: np.ndarray) -> np.ndarray:
    """Fold a stacked ``(K, d, d)`` Kraus array into its superoperator.

    One stacked contraction + sum over the operator axis:
    ``S[(i,l),(j,k)] = sum_m K_m[i,j] conj(K_m)[l,k]``. Applying ``S`` to
    the channel qubits' combined ket/bra axes is exactly
    ``sum_m K_m rho K_m^dagger``, with per-application cost independent
    of ``K``.
    """
    dim = kraus.shape[1]
    stacked = np.tensordot(
        kraus, kraus.conj(), axes=(0, 0)
    )  # (i, j, l, k) summed over m
    return np.ascontiguousarray(
        stacked.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    )


@dataclass(frozen=True)
class ChannelOp:
    """One noise-channel site with pre-stacked Kraus operators.

    ``kraus`` has shape ``(K, 2**k, 2**k)`` for ``k = len(qubits)``;
    ``superop`` is the pre-compiled ``(4**k, 4**k)`` superoperator the
    density-matrix simulator applies as a single tensordot, and
    ``probes`` the stacked ``K_m^dagger K_m`` effect operators the
    trajectory engine contracts for branch probabilities — both are
    plan-constant, so they compile once per site. ``matrix`` is always
    ``None`` — it exists so the fusion pass (which treats matrix-less
    ops as barriers on their qubits) and the execution loops can handle
    :class:`PlanOp` and :class:`ChannelOp` uniformly.

    ``superop_class`` / ``kraus_classes`` are the kernel classes of the
    superoperator and of each Kraus operator (see
    :func:`~repro.compiler.ir.kernel_class_of_matrix`), derived once at
    construction so the simulators dispatch per site without matrix
    inspection — a pure-dephasing site, for example, has a diagonal
    superoperator and rides the elementwise fast path.
    """

    qubits: Tuple[int, ...]
    kraus: np.ndarray
    superop: np.ndarray = field(default=None)
    probes: np.ndarray = field(default=None)
    matrix: None = field(default=None, init=False)
    superop_class: str = field(default=None)
    kraus_classes: Tuple[str, ...] = field(default=None)

    def __post_init__(self):
        if self.superop is None:
            object.__setattr__(self, "superop", kraus_superoperator(self.kraus))
        if self.probes is None:
            object.__setattr__(
                self,
                "probes",
                np.matmul(self.kraus.conj().transpose(0, 2, 1), self.kraus),
            )
        if self.superop_class is None:
            object.__setattr__(
                self, "superop_class", kernel_class_of_matrix(self.superop)
            )
        if self.kraus_classes is None:
            object.__setattr__(
                self,
                "kraus_classes",
                tuple(kernel_class_of_matrix(k) for k in self.kraus),
            )

    @property
    def num_kraus(self) -> int:
        return int(self.kraus.shape[0])


NoisePlanOp = Union[PlanOp, ChannelOp]


class NoisePlan:
    """Executable form of a bound circuit under a fixed noise model."""

    def __init__(
        self,
        num_qubits: int,
        ops: Tuple[NoisePlanOp, ...],
        *,
        source_gate_counts: Tuple[int, int],
        fused: bool = False,
        key: Optional[str] = None,
    ):
        self.num_qubits = num_qubits
        self.ops = tuple(ops)
        #: (single-qubit, two-qubit) counts of the *source* circuit,
        #: stable under fusion — survival-factor models consume these.
        self.source_gate_counts = source_gate_counts
        self.fused = fused
        self.key = key

    @property
    def num_channels(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, ChannelOp))

    @property
    def num_unitary_ops(self) -> int:
        return sum(1 for op in self.ops if not isinstance(op, ChannelOp))

    def __repr__(self) -> str:
        return (
            f"NoisePlan(qubits={self.num_qubits}, "
            f"unitaries={self.num_unitary_ops}, "
            f"channels={self.num_channels}, fused={self.fused})"
        )


def _stack_kraus(kraus_ops, dedupe: Dict[bytes, np.ndarray]) -> np.ndarray:
    """Stack a channel's Kraus list into ``(K, d, d)``, deduplicating.

    Noise models rebuild their operator lists on every ``channels_for``
    call; content-keyed deduplication makes every identical channel site
    in a plan share one stacked array.
    """
    stacked = np.ascontiguousarray(np.asarray(kraus_ops, dtype=complex))
    if stacked.ndim != 3 or stacked.shape[1] != stacked.shape[2]:
        raise ValueError(
            f"Kraus operators must stack to (K, d, d), got {stacked.shape}"
        )
    content = stacked.tobytes() + str(stacked.shape).encode()
    shared = dedupe.get(content)
    if shared is not None:
        return shared
    dedupe[content] = stacked
    return stacked


def lower_noise_plan(
    circuit: QuantumCircuit, noise_model, *, key: Optional[str] = None
) -> NoisePlan:
    """Lower a bound circuit and its noise model into an (unfused) plan.

    ``noise_model`` follows the ``repro.noise.NoiseModel`` protocol:
    ``channels_for(gate_name, qubits)`` yields ``(kraus_ops, qubits)``
    pairs applied after the ideal gate.
    """
    if circuit.num_parameters:
        raise ValueError("circuit has unbound parameters; bind it first")
    ops: List[NoisePlanOp] = []
    dedupe: Dict[bytes, np.ndarray] = {}
    singles = 0
    twos = 0
    for inst in circuit:
        if inst.name == "barrier":
            continue
        if len(inst.qubits) == 2:
            twos += 1
        else:
            singles += 1
        matrix = GATES[inst.name].matrix(tuple(float(p) for p in inst.params))
        ops.append(PlanOp(inst.qubits, matrix=matrix))
        for kraus_ops, qubits in noise_model.channels_for(
            inst.name, inst.qubits
        ):
            ops.append(ChannelOp(tuple(qubits), _stack_kraus(kraus_ops, dedupe)))
    return NoisePlan(
        circuit.num_qubits,
        tuple(ops),
        source_gate_counts=(singles, twos),
        fused=False,
        key=key,
    )


def absorb_unitaries(
    ops: Tuple[NoisePlanOp, ...], max_support: int = MAX_FUSION_SUPPORT
) -> Tuple[NoisePlanOp, ...]:
    """Merge static unitaries directly preceding a channel into its Kraus.

    When a channel site immediately follows a static op in the schedule
    and their union support stays within ``max_support`` qubits, the
    unitary folds into every Kraus operator (``K_m <- K_m @ U`` on the
    union support) and the pair executes as one superoperator
    contraction. Under a uniform per-gate noise model this halves the
    number of full-state contractions: every (gate, channel) pair the
    lowering emitted becomes a single site.
    """
    absorbed: List[NoisePlanOp] = []
    for op in ops:
        if (
            isinstance(op, ChannelOp)
            and absorbed
            and not isinstance(absorbed[-1], ChannelOp)
            and absorbed[-1].matrix is not None
        ):
            target = absorbed[-1]
            union = target.qubits + tuple(
                q for q in op.qubits if q not in target.qubits
            )
            if len(union) <= max_support:
                unitary = _expand_matrix(target.matrix, target.qubits, union)
                kraus = np.stack(
                    [
                        _expand_matrix(k, op.qubits, union) @ unitary
                        for k in op.kraus
                    ]
                )
                absorbed[-1] = ChannelOp(union, kraus)
                continue
        absorbed.append(op)
    return tuple(absorbed)


def fuse_noise_plan(
    plan: NoisePlan, max_support: int = MAX_FUSION_SUPPORT
) -> NoisePlan:
    """A channel-aware fused copy of ``plan``.

    Two stages. First the plan-level
    :func:`~repro.compiler.passes.fuse_static_ops` merges static-gate
    runs — channel sites have no ``matrix`` so they act as fusion
    barriers on exactly their own qubits, just like parameterized ops in
    the noiseless pipeline. Then :func:`absorb_unitaries` folds each
    surviving unitary that directly precedes a channel site into that
    site's Kraus stack.
    """
    if plan.fused:
        return plan
    fused_ops = fuse_static_ops(plan.ops, plan.num_qubits, max_support)
    fused_ops = absorb_unitaries(fused_ops, max_support)
    return NoisePlan(
        plan.num_qubits,
        tuple(fused_ops),
        source_gate_counts=plan.source_gate_counts,
        fused=True,
        key=plan.key,
    )


def noise_fingerprint(noise_model) -> Optional[str]:
    """Content fingerprint of a noise model, or ``None`` if it has none.

    Models exposing a ``fingerprint()`` (like
    :class:`~repro.noise.noise_model.NoiseModel`) get cacheable noise
    plans; anything else still lowers, just uncached.
    """
    fingerprint = getattr(noise_model, "fingerprint", None)
    if fingerprint is None:
        return None
    value = fingerprint() if callable(fingerprint) else fingerprint
    return str(value)


def _maybe_verify(plan: NoisePlan, circuit: QuantumCircuit, noise_model) -> None:
    """Run the Tier-1 noise-plan verifier when ``REPRO_VERIFY=1``.

    Mirrors the :class:`~repro.compiler.passes.VerifyPlan` pipeline pass
    for the noisy lowering path (noise plans never pass through a
    :class:`~repro.compiler.passes.Pipeline`). Verification happens at
    build time only — cache hits return already-verified plans.
    """
    from repro.compiler.passes import verification_enabled

    if not verification_enabled():
        return
    from repro.analysis.verify import PlanVerificationError, verify_noise_plan

    report = verify_noise_plan(plan, circuit, noise_model)
    if report.has_errors:
        raise PlanVerificationError(report, context=f"noise plan of {circuit.name}")


def compile_noise_plan(
    circuit: QuantumCircuit,
    noise_model,
    *,
    fusion: bool = True,
    cache: bool = True,
) -> NoisePlan:
    """Compile a (circuit, noise model) pair into a cached, fused plan.

    ``fusion=False`` keeps the unfused plan, like the noiseless
    :func:`~repro.compiler.api.compile_plan`. Caching requires the noise
    model to expose a content ``fingerprint()``.
    """
    model_fingerprint = noise_fingerprint(noise_model)

    def build(key: Optional[str] = None) -> NoisePlan:
        plan = lower_noise_plan(circuit, noise_model, key=key)
        plan = fuse_noise_plan(plan) if fusion else plan
        _maybe_verify(plan, circuit, noise_model)
        return plan

    if not cache or model_fingerprint is None:
        return build()
    key = "noise:" + circuit_fingerprint(
        circuit,
        extra=(model_fingerprint, "fused" if fusion else "raw"),
    )
    return PLAN_CACHE.get_or_build(key, lambda: build(key))
