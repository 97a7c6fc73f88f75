"""Experiment configuration, deterministic reports and the ``pqt`` CLI."""

from .config import ConfigError, ExperimentConfig, parse_config
from .report import Report
from .runner import list_protocols, run
from .stats import tv_distance, wilson_interval

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Report",
    "list_protocols",
    "parse_config",
    "run",
    "tv_distance",
    "wilson_interval",
]
