"""AES-128 against FIPS-197 and CBC-MAC properties."""

import pytest

from repro.apps.aes.cbc_mac import cbc_mac
from repro.apps.aes.cipher import (
    Aes128,
    INV_SBOX,
    SBOX,
    encrypt_block,
    expand_key,
    gf_multiply,
)


class TestGaloisField:
    def test_known_products(self):
        assert gf_multiply(0x57, 0x83) == 0xC1  # FIPS-197 example
        assert gf_multiply(0x57, 0x13) == 0xFE
        assert gf_multiply(1, 0xAB) == 0xAB
        assert gf_multiply(0, 0xFF) == 0

    def test_commutative(self):
        for a, b in ((3, 7), (0x53, 0xCA), (0xFF, 0xFE)):
            assert gf_multiply(a, b) == gf_multiply(b, a)


class TestSbox:
    def test_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_is_a_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_inverse_box(self):
        for value in range(256):
            assert INV_SBOX[SBOX[value]] == value


class TestKeyExpansion:
    def test_fips197_appendix_a(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        round_keys = expand_key(key)
        assert len(round_keys) == 11
        assert round_keys[0] == key
        assert round_keys[1].hex() == "a0fafe1788542cb123a339392a6c7605"
        assert round_keys[10].hex() == "d014f9a8c9ee2589e13f0cc8b6630ca6"

    def test_key_length_validation(self):
        with pytest.raises(ValueError):
            expand_key(b"short")


class TestEncryption:
    def test_fips197_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = "3925841d02dc09fbdc118597196a0b32"
        assert encrypt_block(plaintext, key).hex() == expected

    def test_fips197_appendix_c1(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = "69c4e0d86a7b0430d8cdb78070b4c55a"
        assert encrypt_block(plaintext, key).hex() == expected

    def test_class_matches_function(self):
        key = bytes(range(16))
        block = bytes(range(16, 32))
        assert Aes128(key).encrypt(block) == encrypt_block(block, key)

    def test_block_length_validation(self):
        with pytest.raises(ValueError):
            encrypt_block(b"short", bytes(16))
        with pytest.raises(ValueError):
            Aes128(bytes(16)).encrypt(b"short")

    def test_avalanche(self):
        """One flipped plaintext bit changes about half the output."""
        key = bytes(range(16))
        base = bytearray(16)
        flipped = bytearray(16)
        flipped[0] ^= 1
        a = encrypt_block(bytes(base), key)
        b = encrypt_block(bytes(flipped), key)
        differing = sum(
            bin(x ^ y).count("1") for x, y in zip(a, b)
        )
        assert 40 <= differing <= 88


class TestCbcMac:
    def test_deterministic(self):
        key = bytes(range(16))
        assert cbc_mac(b"hello", key) == cbc_mac(b"hello", key)

    def test_sensitive_to_message(self):
        key = bytes(range(16))
        assert cbc_mac(b"hello", key) != cbc_mac(b"hellp", key)

    def test_sensitive_to_key(self):
        assert cbc_mac(b"hello", bytes(16)) \
            != cbc_mac(b"hello", bytes(range(16)))

    def test_length_extension_resisted(self):
        """Length prefixing: m and m || 0x00 authenticate differently."""
        key = bytes(range(16))
        assert cbc_mac(b"abc", key) != cbc_mac(b"abc\x00", key)

    def test_tag_length(self):
        assert len(cbc_mac(b"", bytes(16))) == 16
        assert len(cbc_mac(b"x" * 100, bytes(16))) == 16
