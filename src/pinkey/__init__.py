"""Cooperative private-key generation in a pairwise-independent network.

Simulator and rate calculator: source models, closed-form key rates with
a matching cut-set bound, a round-robin public-channel protocol with
random-binning key distillation, exact secrecy audits, and wireless
channel-estimation rate evaluation.
"""

from .distillation import KeyIndex, RbCodebook, build_codebook, distill
from .errors import (BudgetExceeded, ConfigError, InvariantViolation,
                     ReconciliationFailure)
from .infotools import leakage_audit
from .model import (PairSource, PinInstance, ProtocolParams,
                    SourceRealization, binary_entropy, sample)
from .pipeline import run_once
from .protocol import (PairwiseKeys, Transcript, agree_keys, alice_common,
                       bob_common, reconcile_pair, xor_broadcast,
                       xor_payloads)
from .rates import (RateReport, capacity, converse_bound, rate_report,
                    xor_baseline_rate)
from .wireless import (WirelessConfig, multiplexing_gain_sweep,
                       optimize_allocation, uniform_config)

__version__ = "0.1.0"
