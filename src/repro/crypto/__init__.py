"""Cryptographic substrate.

* :mod:`repro.crypto.modes` — CTR mode over OpenSSL's AES (through
  ``cryptography``): the counter blocks of a batch in NumPy, one AES
  call, one XOR,
* :mod:`repro.crypto.cipher` — :class:`AesCipher`, the authenticated
  (encrypt-then-MAC) symmetric cipher the Encrypted M-Index uses,
* :mod:`repro.crypto.keys` — :class:`SecretKey`, the paper's secret key:
  the pivot set plus the symmetric cipher key,
* :mod:`repro.crypto.ope` — order-preserving encryption, the primitive
  behind the MPT baseline of Yiu et al.

The test suite pins CTR to the FIPS-197 and NIST SP 800-38A vectors and
the token format to recorded bytes.
"""

from repro.crypto.cipher import AesCipher
from repro.crypto.keys import SecretKey
from repro.crypto.ope import OrderPreservingEncryption

__all__ = [
    "AesCipher",
    "OrderPreservingEncryption",
    "SecretKey",
]
