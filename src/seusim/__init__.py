"""Gate-level single-event-transient injection and outcome statistics.

The package simulates particle strikes on the drains of a synchronous
gate-level circuit and estimates, by Monte Carlo, how often a strike ends up
as no flip, a single bit-flip, or multiple bit-flips when the register file
is observed at the two capture edges that follow the strike.
"""

from .campaign import (CampaignConfig, CampaignStats, ClassStats, OutcomeClass,
                       Ratio, SampleRecord, classify, derive_metrics,
                       exhaustive_campaign, run_campaign, sample_strike,
                       standard_error)
from .errors import (BenchParseError, ConfigError, InputError, InvariantError,
                     ProfileError, SeuSimError, StimulusError)
from .golden import Stimulus, Trace, parse_stimulus, simulate_reference
from .injector import (INSTANT, CapturePolicy, SampleResult, SimContext,
                       StrikeSample, capture_at_edge, disturb_gate,
                       disturb_register, parse_policy, run_sample)
from .netlist import (Circuit, Diagnostics, Flop, Gate, parse_bench, validate,
                      wrap_combinational)
from .techmodel import (DrainSite, DrainTable, TechProfile, enumerate_drains,
                        load_bundled_profile, load_profile, period_and_settle)

__version__ = "0.1.0"
