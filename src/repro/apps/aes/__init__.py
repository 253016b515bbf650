"""AES-128 and CBC-MAC (paper Section 5.1).

The paper composes an AES-based message authentication code with the
802.11a receiver to demonstrate multi-application voltage scaling
(16 tiles @ 110 MHz / 0.8 V in Table 4).  The cipher here is a full
FIPS-197 AES-128, validated against the standard's test vectors.
"""
