"""The unified compiler pipeline: staged lowering, fusion, plan caching.

Every execution layer in the repo compiles circuits through this package:

* :func:`compile_plan` — circuit -> :class:`GatePlan` through the default
  pipeline (lowering + static-gate fusion), keyed in a shared LRU cache;
* :func:`transpile_then_compile` — the device-aware entry point (layout,
  routing, native-basis translation absorbed from ``repro.transpiler`` as
  pipeline passes, then lowering + fusion);
* :func:`compile_noise_plan` — (circuit, noise model) ->
  :class:`NoisePlan`, the channel-aware IR of the noisy-execution engine
  (fusion between channel sites, unitary absorption, pre-stacked Kraus +
  per-site superoperators), cached under circuit + noise fingerprints;
* :class:`Pipeline` / the pass classes — for building custom pipelines.

The workload shape this serves is the paper's: thousands of re-evaluations
of the *same* ansatz under shifting transient noise. Everything above the
gate loop is compile-once-bind-many — binding a parameter vector is one
NumPy affine map, and repeated ``run_circuit`` / figure / fleet
invocations hit the plan cache instead of recompiling.

Knob: ``REPRO_VERIFY=1`` appends the :class:`VerifyPlan` static-verification
pass (see :mod:`repro.analysis`) to every pipeline — always-on in tests.
"""

from repro.compiler.api import (
    DeviceCompilation,
    compile_plan,
    transpile_then_compile,
)
from repro.compiler.cache import (
    PLAN_CACHE,
    PlanCache,
    circuit_fingerprint,
    clear_plan_cache,
    plan_cache_capacity,
    plan_cache_stats,
)
from repro.compiler.ir import GatePlan, PlanOp
from repro.compiler.noise_plan import (
    ChannelOp,
    NoisePlan,
    compile_noise_plan,
    fuse_noise_plan,
    lower_noise_plan,
    noise_fingerprint,
)
from repro.compiler.passes import (
    CompilationUnit,
    FuseStaticGates,
    LowerToPlan,
    Pass,
    Pipeline,
    RouteCircuit,
    SelectLayout,
    TranslateToBasis,
    TrimIdleWires,
    VerifyPlan,
    default_pipeline,
    device_pipeline,
    fuse_plan,
    verification_enabled,
)

__all__ = [
    "DeviceCompilation",
    "compile_plan",
    "transpile_then_compile",
    "PLAN_CACHE",
    "PlanCache",
    "circuit_fingerprint",
    "clear_plan_cache",
    "plan_cache_capacity",
    "plan_cache_stats",
    "GatePlan",
    "PlanOp",
    "ChannelOp",
    "NoisePlan",
    "compile_noise_plan",
    "fuse_noise_plan",
    "lower_noise_plan",
    "noise_fingerprint",
    "CompilationUnit",
    "FuseStaticGates",
    "LowerToPlan",
    "Pass",
    "Pipeline",
    "RouteCircuit",
    "SelectLayout",
    "TranslateToBasis",
    "TrimIdleWires",
    "VerifyPlan",
    "default_pipeline",
    "device_pipeline",
    "fuse_plan",
    "verification_enabled",
]
