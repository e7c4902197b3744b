"""QISMET reproduction library.

Reproduces "Navigating the Dynamic Noise Landscape of Variational Quantum
Algorithms with QISMET" (Ravi et al., ASPLOS 2023) end to end: a quantum
circuit simulator with static and transient noise models, VQE with SPSA
tuning, and the QISMET transient-skipping controller plus all the paper's
comparison schemes.

Quickstart::

    from repro import (
        EfficientSU2, EnergyObjective, QismetController, SPSA,
        TransientBackend, VQE, tfim_hamiltonian,
    )
    from repro.noise.transient import TransientProfile, generate_trace

    hamiltonian = tfim_hamiltonian(6)
    objective = EnergyObjective(EfficientSU2(6, reps=2), hamiltonian)
    trace = generate_trace(TransientProfile(), length=600, seed=7)
    backend = TransientBackend(objective, trace, seed=11)
    vqe = VQE(objective, backend, SPSA(seed=13), controller=QismetController())
    result = vqe.run(300, seed=17)
    print(result.final_machine_energy)

The batched evaluation engine (``BatchedStatevectorSimulator`` and
``EnergyObjective.batch_energies``, through which unguarded ``VQE`` runs
evaluate SPSA's blocks), the unified compiler pipeline
(``compile_plan``, ``compile_noise_plan``, ``transpile_then_compile``,
``GatePlan``, ``NoisePlan``; see :mod:`repro.compiler`), the
noisy-execution engine (``DensityMatrixSimulator``) and the fleet
scheduling service (``FleetExecutor``, ``FleetService``,
``DeviceFleet``; see :mod:`repro.fleet`) are exported here too, so
workers and downstream users never need to reach into submodules.
"""

__version__ = "1.0.0"

from repro.ansatz import EfficientSU2, RealAmplitudes
from repro.backends import (
    CountsBackend,
    IdealBackend,
    StaticNoiseBackend,
    TransientBackend,
)
from repro.circuits import Parameter, ParameterVector, QuantumCircuit
from repro.compiler import (
    GatePlan,
    NoisePlan,
    compile_noise_plan,
    compile_plan,
    plan_cache_stats,
    transpile_then_compile,
)
from repro.simulator import (
    BatchedStatevectorSimulator,
    DensityMatrixSimulator,
    simulate_statevectors,
)
from repro.core import (
    GradientFaithfulPolicy,
    OnlinePercentileThreshold,
    OnlyTransientsPolicy,
    QismetController,
    TransientEstimate,
)
from repro.hamiltonians import (
    h2_hamiltonian,
    h2_problem,
    heisenberg_hamiltonian,
    maxcut_hamiltonian,
    tfim_exact_ground_energy,
    tfim_hamiltonian,
)
from repro.noise import NoiseModel, ReadoutError, ReadoutMitigator
from repro.operators import PauliString, PauliSum
from repro.optimizers import (
    SPSA,
    BlockingSPSA,
    ParameterShiftGradientDescent,
    ResamplingSPSA,
    SecondOrderSPSA,
)
from repro.runtime import (
    CachedExecutor,
    ExperimentPlan,
    ParallelExecutor,
    PlanResult,
    RunResult,
    RunSpec,
    SerialExecutor,
)
from repro.fleet import DeviceFleet, FleetExecutor, FleetService
from repro.vqa import EnergyObjective, VQE, VQEResult

__all__ = [
    "__version__",
    "EfficientSU2",
    "RealAmplitudes",
    "CountsBackend",
    "IdealBackend",
    "StaticNoiseBackend",
    "TransientBackend",
    "Parameter",
    "ParameterVector",
    "QuantumCircuit",
    "GatePlan",
    "NoisePlan",
    "compile_noise_plan",
    "compile_plan",
    "plan_cache_stats",
    "transpile_then_compile",
    "GradientFaithfulPolicy",
    "OnlinePercentileThreshold",
    "OnlyTransientsPolicy",
    "QismetController",
    "TransientEstimate",
    "h2_hamiltonian",
    "h2_problem",
    "heisenberg_hamiltonian",
    "maxcut_hamiltonian",
    "tfim_exact_ground_energy",
    "tfim_hamiltonian",
    "NoiseModel",
    "ReadoutError",
    "ReadoutMitigator",
    "PauliString",
    "PauliSum",
    "SPSA",
    "BlockingSPSA",
    "ParameterShiftGradientDescent",
    "ResamplingSPSA",
    "SecondOrderSPSA",
    "CachedExecutor",
    "ExperimentPlan",
    "ParallelExecutor",
    "PlanResult",
    "RunResult",
    "RunSpec",
    "SerialExecutor",
    "BatchedStatevectorSimulator",
    "DensityMatrixSimulator",
    "simulate_statevectors",
    "DeviceFleet",
    "FleetExecutor",
    "FleetService",
    "EnergyObjective",
    "VQE",
    "VQEResult",
]
