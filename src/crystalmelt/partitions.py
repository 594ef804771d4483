"""Integer partitions and the two interlacing relations.

A partition is a tuple of positive integers in non-increasing order; trailing
zeros are implicit, so comparisons pad with zeros as needed.
"""


def interlace_plus(lam, mu):
    """lam >=+ mu: lam_i - mu_i in {0, 1} for every row (implicit zeros)."""
    if len(mu) > len(lam):
        return False
    for i in range(len(lam)):
        m = mu[i] if i < len(mu) else 0
        if not 0 <= lam[i] - m <= 1:
            return False
    return True


def interlace_minus(lam, mu):
    """lam >=- mu: the chain lam_1 >= mu_1 >= lam_2 >= mu_2 >= ..."""
    for i in range(max(len(lam), len(mu))):
        l_i = lam[i] if i < len(lam) else 0
        m_i = mu[i] if i < len(mu) else 0
        l_next = lam[i + 1] if i + 1 < len(lam) else 0
        if not l_i >= m_i >= l_next:
            return False
    return True
