"""Ablation: slot granularity *d* (§IV-A, last paragraph).

The paper coarsens very large loops by treating *d* iterations as one
scheduling unit "to reduce synchronization overhead between the scheduler
thread and the application process as well as the running time of our
scheduling algorithms".  This bench quantifies the trade: compile time
falls with *d* while the energy result stays close, degrading only when
*d* gets so coarse the schedule loses placement freedom.
"""

import time

from repro.core import CompilerOptions, SlackOptions, compile_schedule
from repro.experiments import default_config
from repro.ir import trace_program
from repro.metrics import fleet_energy
from repro.power import HistoryBasedMultiSpeed
from repro.runtime import Session
from repro.storage import StripedFile, StripeMap
from repro.workloads import get_workload


def test_ablation_granularity():
    cfg = default_config()
    program = get_workload("hf").build(cfg.n_clients, cfg.workload_scale)
    smap = StripeMap(cfg.stripe_size, cfg.n_ionodes)

    def run():
        results = {}
        for d in (1, 2, 4):
            trace = trace_program(program, granularity=d)
            files = {
                name: StripedFile(name, decl.size_bytes)
                for name, decl in trace.program.files.items()
            }
            started = time.perf_counter()
            compiled = compile_schedule(
                program, smap, files,
                CompilerOptions(
                    delta=max(cfg.delta // d, 1),
                    theta=cfg.theta,
                    granularity=d,
                    slack=SlackOptions(max_slack=max(cfg.max_slack // d, 1)),
                ),
                trace=trace,
            )
            compile_seconds = time.perf_counter() - started
            session = Session(
                trace,
                cfg.disk_spec(multispeed=True),
                lambda: HistoryBasedMultiSpeed(
                    utilization_bound=cfg.history_utilization_bound
                ),
                cfg.session_config(),
                compile_result=compiled,
            )
            outcome = session.run()
            horizon = outcome.execution_time
            results[d] = {
                "compile_s": compile_seconds,
                "energy": fleet_energy(outcome.drives, horizon),
                "slots": trace.n_slots,
            }
        return results

    results = run()
    for d, row in results.items():
        print(f"d={d}: slots={row['slots']:5d}  "
              f"compile={row['compile_s']:6.2f}s  "
              f"energy={row['energy']:10.1f} J")
    # Coarser granularity shrinks the scheduling problem...
    assert results[4]["slots"] < results[1]["slots"]
    assert results[4]["compile_s"] <= results[1]["compile_s"] * 1.1
    # ...without destroying the energy result (within 25%).
    assert results[4]["energy"] <= results[1]["energy"] * 1.25
