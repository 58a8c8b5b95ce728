"""Cooperative private-key generation in a pairwise-independent network.

Simulator and rate calculator: source models, closed-form key rates with
a matching cut-set bound, a round-robin public-channel protocol with
random-binning key distillation, exact secrecy audits, and wireless
channel-estimation rate evaluation.
"""

from .distillation import KeyIndex, RbCodebook, build_codebook, distill, \
    invert, xor_distill
from .errors import (BudgetExceeded, ConfigError, InvariantViolation,
                     PinkeyError, ReconciliationFailure)
from .infotools import JointPmf, empirical_mi, exact_entropy, exact_mi, \
    leakage_audit
from .model import (PairSource, PinInstance, ProtocolParams,
                    SourceRealization, binary_entropy,
                    pair_mutual_informations, sample)
from .pipeline import run_once
from .protocol import (PairwiseKeys, Transcript, agree_keys, alice_common,
                       bob_common, reconcile_pair, xor_broadcast,
                       xor_payloads)
from .rates import (RateReport, capacity, capacity_order_stat,
                    converse_bound, rate_report, xor_baseline_rate)
from .wireless import (WirelessConfig, key_rate, mc_estimate_check,
                       multiplexing_gain_sweep, optimize_allocation,
                       pairwise_rate, uniform_config)

__version__ = "0.1.0"
