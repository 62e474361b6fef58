"""Catalog of the identity tables this toolkit verifies at desk scale.

Each row pairs a weight tuple with the residue-spec rendering of its product
side.  ``ODD_ROWS`` use the odd-width character product, ``EVEN_ROWS`` the
even-width product.  Doubled odd-part families are written "odd, odd".

``REFUTED_VARIANTS`` hold near-miss class lists that circulate alongside the
correct ones; the counting engine refutes each at the recorded degree, which
makes them good regression data for the mismatch-detection path.

:func:`sp_weyl_dimension` is Weyl's dimension formula for sp(2r), an oracle
for ``dimension`` that shares no code with the counting kernel.
"""

ODD_ROWS = [
    ((1, 0, 0), "odd; 4 mod 8"),
    ((0, 1, 0), "1,3,5,7 mod 8 [(+2 mod 4)]"),
    ((2, 0, 0), "odd; 2,4,5,6,8 mod 10"),
    ((1, 1, 0), "odd; 1,3,5,7,9 mod 10"),
    ((1, 0, 1), "1,1,3,4,4,6,6,7,9,9 mod 10"),
    ((0, 2, 0), "1,2,2,3,3,7,7,8,8,9 mod 10"),
    ((3, 0, 0), "odd; 2,3,4,5,6,7,8,9,10 mod 12"),
    ((2, 1, 0), "odd; 1,2,4,5,6,7,8,10,11 mod 12"),
    ((2, 0, 1), "odd; 1,2,4,5,6,7,8,10,11 mod 12"),
    ((1, 2, 0), "odd; 1,2,3,4,6,8,9,10,11 mod 12"),
    ((1, 1, 1), "odd, odd; mod 6 [(+1 mod 6)(+3 mod 6)(+5 mod 6)]"),
    ((3, 0, 1), "odd; 1,2,3,4,6,6,7,8,8,10,11,12,13 mod 14"),
    ((2, 1, 1), "odd, odd; 1,4,6,8,10,13 mod 14"),
    ((2, 0, 2), "1,1,2,2,3,5,5,5,6,6,8,8,9,9,9,11,12,12,13,13 mod 14"),
    ((0, 4, 0), "1,2,2,3,3,3,4,4,5,5,9,9,10,10,11,11,11,12,12,13 mod 14"),
    ((3, 0, 2), "odd, odd; 2,2,6,6,8,10,10,14,14 mod 16"),
    ((1, 0, 0, 1), "odd; 1,3,4,5,7,8,9,11 mod 12"),
    ((0, 1, 1, 0), "odd; 1,2,3,5,7,9,10,11 mod 12"),
    ((2, 0, 0, 1), "odd; 1,2,3,4,5,6,6,8,8,9,10,11,12,13 mod 14"),
    ((2, 0, 0, 2), "odd, odd; 2,2,4,6,6,6,10,10,10,12,14,14 mod 16"),
    ((1, 0, 0, 0, 1), "1,1,3,3,4,4,5,6,6,8,8,9,10,10,11,11,13,13 mod 14"),
    ((0, 1, 1, 0, 0), "odd; 1,2,3,4,5,7,9,10,11,12,13 mod 14"),
    ((0, 1, 1, 0, 1), "odd; 1,1,2,3,4,4,6,6,7,8,9,10,10,12,12,13,14,15,15 mod 16"),
    ((2, 1, 0, 0, 1), "odd, odd; 1,2,4,4,5,6,7,8,8,10,10,11,12,13,14,14,16,17 mod 18"),
]

EVEN_ROWS = [
    ((1, 0), "2,3 mod 5"),
    ((0, 1), "1,4 mod 5"),
    ((2, 0), "2,3,4,5 mod 7"),
    ((1, 1), "1,3,4,6 mod 7"),
    ((0, 2), "1,2,5,6 mod 7"),
    ((3, 0), "2,3,4,5,6,7 mod 9"),
    ((2, 1), "1,3,4,5,6,8 mod 9"),
    ((1, 2), "1,2,4,5,7,8 mod 9"),
    ((0, 3), "1,2,3,6,7,8 mod 9"),
    ((1, 0, 0), "2,3,4,5 mod 7"),
    ((0, 1, 0), "1,2,5,6 mod 7"),
    ((0, 0, 1), "1,3,4,6 mod 7"),
    ((2, 0, 0), "2,3,4,4,5,5,6,7 mod 9"),
    ((1, 1, 0), "1,2,3,4,5,6,7,8 mod 9"),
    ((1, 0, 1), "1,2,3,4,5,6,7,8 mod 9"),
    ((0, 2, 0), "1,2,2,3,6,7,7,8 mod 9"),
    ((0, 1, 1), "1,1,3,4,5,6,8,8 mod 9"),
    ((0, 0, 2), "1,2,3,4,5,6,7,8 mod 9"),
    ((3, 0, 0), "2,3,4,4,5,5,6,6,7,7,8,9 mod 11"),
    ((2, 1, 0), "1,2,3,4,5,5,6,6,7,8,9,10 mod 11"),
    ((2, 0, 1), "1,2,3,4,4,5,6,7,7,8,9,10 mod 11"),
    ((1, 2, 0), "1,2,2,3,4,5,6,7,8,9,9,10 mod 11"),
    ((1, 1, 1), "1,1,3,3,4,5,6,7,8,8,10,10 mod 11"),
    ((1, 0, 2), "1,2,2,3,5,5,6,6,8,9,9,10 mod 11"),
    ((0, 3, 0), "1,2,2,3,3,4,7,8,8,9,9,10 mod 11"),
    ((0, 2, 1), "1,1,2,3,4,5,6,7,8,9,10,10 mod 11"),
    ((0, 1, 2), "1,1,2,4,4,5,6,7,7,9,10,10 mod 11"),
    ((0, 0, 3), "1,2,3,3,4,5,6,7,8,8,9,10 mod 11"),
    ((1, 0, 0, 0), "2,3,4,5,6,7 mod 9"),
    ((0, 1, 0, 0), "1,2,4,5,7,8 mod 9"),
    ((0, 0, 1, 0), "1,2,3,6,7,8 mod 9"),
    ((0, 0, 0, 1), "1,3,4,5,6,8 mod 9"),
    ((2, 0, 0, 0), "2,3,4,4,5,5,6,6,7,7,8,9 mod 11"),
    ((1, 1, 0, 0), "1,2,3,4,4,5,6,7,7,8,9,10 mod 11"),
    (
        (0, 1, 1, 0, 1),
        "1,1,1,2,3,4,4,4,6,6,6,7,8,9,9,9,11,11,11,12,13,14,14,14 mod 15",
    ),
    (
        (2, 1, 0, 0, 1),
        "1,1,2,3,3,4,4,5,5,5,6,6,7,7,8,8,9,9,10,10,"
        "11,11,12,12,12,13,13,14,14,15,16,16 mod 17",
    ),
    (
        (0, 1, 1, 1, 1),
        "1,1,1,1,3,3,3,4,5,5,5,6,7,7,8,8,9,9,10,10,"
        "11,12,12,12,13,14,14,14,16,16,16,16 mod 17",
    ),
]

# (form, weights, wrong spec text, first degree where counting refutes it)
REFUTED_VARIANTS = [
    # Copies the (3,0,0) class list, which does not hold for (0,3,0): the
    # character product has a numerator class at 6 mod 12 instead.
    ("odd", (0, 3, 0), "odd; 2,3,4,5,6,7,8,9,10 mod 12", 2),
    # Drops one "15 mod 16" class, losing one colored 15-part.
    ("odd", (0, 1, 1, 0, 1),
     "odd; 1,1,2,3,4,4,6,6,7,8,9,10,10,12,12,13,14,15 mod 16", 15),
]


def sp_weyl_dimension(ks):
    """Weyl's dimension of the sp(2r) module of highest weight sum k_i omega_i.

    With omega_i = e_1 + ... + e_i, the weight is lambda_j = k_j + ... + k_r;
    with rho = (r, r - 1, ..., 1) and a = lambda + rho the dimension is
    prod_{i<j} (a_i^2 - a_j^2) / (rho_i^2 - rho_j^2) * prod_i a_i / rho_i.
    """
    r = len(ks)
    rho = range(r, 0, -1)
    a = [sum(ks[j:]) + rho[j] for j in range(r)]
    num = den = 1
    for i in range(r):
        num, den = num * a[i], den * rho[i]
        for j in range(i + 1, r):
            num *= a[i] ** 2 - a[j] ** 2
            den *= rho[i] ** 2 - rho[j] ** 2
    dim, rest = divmod(num, den)
    assert rest == 0, ks
    return dim
