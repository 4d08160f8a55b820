from .client import ClusterError, RunResult, run_distributed, shutdown_cluster, submit_run
from .planner import plan_partitions
from .scheduler import Scheduler
from .worker import Worker

__all__ = [
    "ClusterError",
    "RunResult",
    "Scheduler",
    "Worker",
    "plan_partitions",
    "run_distributed",
    "shutdown_cluster",
    "submit_run",
]
