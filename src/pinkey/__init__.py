"""Cooperative private-key generation in a pairwise-independent network.

Simulator and rate calculator: source models, closed-form key rates with
a matching cut-set bound, a round-robin public-channel protocol with
random-binning key distillation, exact secrecy audits, and wireless
channel-estimation rate evaluation.
"""

__version__ = "0.1.0"
