//! Typed message buffers.
//!
//! P2P-MPI is an MPJ implementation: the API carries typed arrays, the wire
//! carries bytes.  [`Datatype`] gives the byte view used by the transport,
//! and [`Reducible`] adds the element-wise operations the reduction
//! collectives need.

/// A fixed-size element type that can cross the simulated wire.
pub trait Datatype: Copy + Send + 'static {
    /// Size of one element in bytes (what the cost model charges).
    const SIZE: usize;

    /// Serializes a slice of elements to bytes (little-endian).
    fn to_bytes(data: &[Self]) -> Vec<u8>;

    /// Deserializes bytes produced by [`Datatype::to_bytes`].
    fn from_bytes(bytes: &[u8]) -> Vec<Self>;
}

/// Reduction operators understood by `reduce`/`allreduce`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

/// Element types supporting the reduction operators.
pub trait Reducible: Datatype {
    /// `acc[i] = op(acc[i], other[i])` for every element.
    fn reduce_into(op: ReduceOp, acc: &mut [Self], other: &[Self]);
}

macro_rules! impl_datatype {
    ($t:ty, $size:expr) => {
        impl Datatype for $t {
            const SIZE: usize = $size;

            fn to_bytes(data: &[Self]) -> Vec<u8> {
                let mut out = Vec::with_capacity(data.len() * Self::SIZE);
                for v in data {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out
            }

            fn from_bytes(bytes: &[u8]) -> Vec<Self> {
                #[allow(clippy::modulo_one)] // SIZE is 1 for u8
                let aligned = bytes.len() % Self::SIZE == 0;
                assert!(
                    aligned,
                    "byte buffer length {} is not a multiple of element size {}",
                    bytes.len(),
                    Self::SIZE
                );
                bytes
                    .chunks_exact(Self::SIZE)
                    .map(|c| <$t>::from_le_bytes(c.try_into().expect("chunk size")))
                    .collect()
            }
        }
    };
}

impl_datatype!(u8, 1);
impl_datatype!(i32, 4);
impl_datatype!(u32, 4);
impl_datatype!(i64, 8);
impl_datatype!(u64, 8);
impl_datatype!(f64, 8);

macro_rules! impl_reducible_ord {
    ($t:ty) => {
        impl Reducible for $t {
            fn reduce_into(op: ReduceOp, acc: &mut [Self], other: &[Self]) {
                assert_eq!(acc.len(), other.len(), "reduction length mismatch");
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = match op {
                        ReduceOp::Sum => a.wrapping_add(*b),
                        ReduceOp::Max => (*a).max(*b),
                        ReduceOp::Min => (*a).min(*b),
                    };
                }
            }
        }
    };
}

impl_reducible_ord!(i32);
impl_reducible_ord!(u32);
impl_reducible_ord!(i64);
impl_reducible_ord!(u64);

impl Reducible for u8 {
    fn reduce_into(op: ReduceOp, acc: &mut [Self], other: &[Self]) {
        assert_eq!(acc.len(), other.len(), "reduction length mismatch");
        for (a, b) in acc.iter_mut().zip(other) {
            *a = match op {
                ReduceOp::Sum => a.wrapping_add(*b),
                ReduceOp::Max => (*a).max(*b),
                ReduceOp::Min => (*a).min(*b),
            };
        }
    }
}

impl Reducible for f64 {
    fn reduce_into(op: ReduceOp, acc: &mut [Self], other: &[Self]) {
        assert_eq!(acc.len(), other.len(), "reduction length mismatch");
        for (a, b) in acc.iter_mut().zip(other) {
            *a = match op {
                ReduceOp::Sum => *a + *b,
                ReduceOp::Max => a.max(*b),
                ReduceOp::Min => a.min(*b),
            };
        }
    }
}

/// Wire size in bytes of a slice of `T`.
pub(crate) fn wire_size<T: Datatype>(data: &[T]) -> u64 {
    (data.len() * T::SIZE) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let xs: Vec<i32> = vec![-5, 0, 123456];
        assert_eq!(i32::from_bytes(&i32::to_bytes(&xs)), xs);
        let xs: Vec<u8> = vec![1, 2, 255];
        assert_eq!(u8::from_bytes(&u8::to_bytes(&xs)), xs);
        let xs: Vec<i64> = vec![i64::MIN, 7, i64::MAX];
        assert_eq!(i64::from_bytes(&i64::to_bytes(&xs)), xs);
        let xs: Vec<u64> = vec![0, u64::MAX];
        assert_eq!(u64::from_bytes(&u64::to_bytes(&xs)), xs);
        let xs: Vec<u32> = vec![0, 42, u32::MAX];
        assert_eq!(u32::from_bytes(&u32::to_bytes(&xs)), xs);
        let xs: Vec<f64> = vec![-1.5, 0.0, std::f64::consts::PI];
        assert_eq!(f64::from_bytes(&f64::to_bytes(&xs)), xs);
    }

    #[test]
    fn wire_size_counts_bytes() {
        assert_eq!(wire_size(&[0i32; 10]), 40);
        assert_eq!(wire_size(&[0f64; 3]), 24);
        assert_eq!(wire_size::<u8>(&[]), 0);
    }

    #[test]
    fn empty_round_trip() {
        let xs: Vec<f64> = vec![];
        assert_eq!(f64::from_bytes(&f64::to_bytes(&xs)), xs);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_buffer_panics() {
        i32::from_bytes(&[1, 2, 3]);
    }

    #[test]
    fn reductions_per_op() {
        let mut a = vec![1i64, 5, -3];
        i64::reduce_into(ReduceOp::Sum, &mut a, &[2, -1, 4]);
        assert_eq!(a, vec![3, 4, 1]);
        let mut a = vec![1i64, 5, -3];
        i64::reduce_into(ReduceOp::Max, &mut a, &[2, -1, 4]);
        assert_eq!(a, vec![2, 5, 4]);
        let mut a = vec![1i64, 5, -3];
        i64::reduce_into(ReduceOp::Min, &mut a, &[2, -1, 4]);
        assert_eq!(a, vec![1, -1, -3]);
        let mut f = vec![1.5f64, 2.0];
        f64::reduce_into(ReduceOp::Sum, &mut f, &[0.5, -1.0]);
        assert_eq!(f, vec![2.0, 1.0]);
        let mut b = vec![250u8];
        u8::reduce_into(ReduceOp::Sum, &mut b, &[10]);
        assert_eq!(b, vec![4]); // wrapping, as documented for integer sums
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reduce_length_mismatch_panics() {
        let mut a = vec![1i32];
        i32::reduce_into(ReduceOp::Sum, &mut a, &[1, 2]);
    }
}
