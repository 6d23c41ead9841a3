//! Byte-generic reduction operators for collectives.
//!
//! The reductions work over raw byte buffers so one engine serves every
//! element type; a [`ReduceOp`] tells it the element width and how to
//! fold an incoming lane into the local accumulator.

/// A byte-generic, element-wise reduction operator.
///
/// Operators must be associative and commutative: which order a
/// reduction folds in depends on the wire, and both orders are fixed,
/// so an operator that is neither (`SumF32` rounds) still gets the same
/// result on every run of the same wire.
///
/// Write `a ∘ b` for `fold(acc = a, incoming = b)` and `x_r` for rank
/// `r`'s contribution.
///
/// * **Rank order, in one address space** (the sims, in-process shm:
///   the direct schedule of [`allreduce`](super::allreduce)): every
///   element is the left fold `((x₀ ∘ x₁) ∘ x₂) ∘ … ∘ xₙ₋₁`.
/// * **The ring's order, across processes or on tcp**: an element of
///   ring block `b` starts as `p = x_b`, and for `k = 1..n` rank
///   `b + k` (mod `n`) makes it `x_{b+k} ∘ p`, the partial it received
///   as the incoming operand.
pub trait ReduceOp {
    /// Element width in bytes; buffers passed to collectives using this
    /// operator must be a multiple of this long.
    fn elem_size(&self) -> usize;

    /// Folds `incoming` into `acc` element-wise (`acc[i] = op(acc[i],
    /// incoming[i])`). Both slices have equal length, a multiple of
    /// [`elem_size`](Self::elem_size).
    fn fold(&self, acc: &mut [u8], incoming: &[u8]);
}

macro_rules! lane_op {
    ($name:ident, $ty:ty, $width:expr, $doc:expr, |$a:ident, $b:ident| $fold:expr) => {
        #[doc = $doc]
        #[derive(Clone, Copy, Debug, Default)]
        pub struct $name;

        impl ReduceOp for $name {
            fn elem_size(&self) -> usize {
                $width
            }

            fn fold(&self, acc: &mut [u8], incoming: &[u8]) {
                debug_assert_eq!(acc.len(), incoming.len());
                for (a, b) in acc.chunks_exact_mut($width).zip(incoming.chunks_exact($width)) {
                    let $a = <$ty>::from_le_bytes(a.try_into().unwrap());
                    let $b = <$ty>::from_le_bytes(b.try_into().unwrap());
                    a.copy_from_slice(&($fold).to_le_bytes());
                }
            }
        }
    };
}

lane_op!(SumU64, u64, 8, "Element-wise `u64` sum.", |a, b| a.wrapping_add(b));
lane_op!(MaxU64, u64, 8, "Element-wise `u64` max.", |a, b| a.max(b));
lane_op!(SumF32, f32, 4, "Element-wise `f32` sum.", |a, b| a + b);
lane_op!(MaxF32, f32, 4, "Element-wise `f32` max.", |a, b| a.max(b));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_u64_folds_lanes() {
        let mut acc: Vec<u8> = [1u64, 2].iter().flat_map(|v| v.to_le_bytes()).collect();
        let inc: Vec<u8> = [10u64, 20].iter().flat_map(|v| v.to_le_bytes()).collect();
        SumU64.fold(&mut acc, &inc);
        let out: Vec<u64> =
            acc.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(out, vec![11, 22]);
    }

    #[test]
    fn max_f32_folds_lanes() {
        let mut acc: Vec<u8> = [1.5f32, 9.0].iter().flat_map(|v| v.to_le_bytes()).collect();
        let inc: Vec<u8> = [2.5f32, 3.0].iter().flat_map(|v| v.to_le_bytes()).collect();
        MaxF32.fold(&mut acc, &inc);
        let out: Vec<f32> =
            acc.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(out, vec![2.5, 9.0]);
    }
}
