"""802.11a OFDM end-to-end application (paper Section 3).

The IEEE 802.11a PHY: OFDM over 64 subcarriers (48 data + 4 pilots),
rates 6-54 Mbps from BPSK/QPSK/16-QAM/64-QAM with a K=7 rate-1/2
convolutional code (punctured to 2/3 and 3/4) and a two-permutation
interleaver.  The paper maps the receiver's four major components -
FFT, demodulation, de-interleaving, and the Viterbi decoder (ACS +
traceback) - onto 20 tiles (Table 4).

We implement both transmitter and receiver so the receiver is tested
end-to-end over an AWGN channel at every rate.
"""
