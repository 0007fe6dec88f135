"""Reference matrix product over Laurent polynomials, shared by the
Burau tests: the reduced Burau image is checked against it as a
homomorphism."""

from ruledcurves.laurent import LaurentPoly


def mat_mul(a, b):
    n = len(a)
    zero = LaurentPoly()
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                if a[i][k].coeffs and b[k][j].coeffs:
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)
