//! Nearest-neighbour resampling.
//!
//! The `resolution-switch` scenario regime rescales label and probability
//! maps mid-stream with it; nearest-neighbour sampling never mixes labels.

use crate::grid::Grid;

/// Resizes a grid with nearest-neighbour sampling.
///
/// Works for any clonable pixel type, which makes it the right choice for
/// label maps (no label mixing).
///
/// # Panics
///
/// Panics if `new_width` or `new_height` is zero.
pub fn resize_nearest<T: Clone>(grid: &Grid<T>, new_width: usize, new_height: usize) -> Grid<T> {
    assert!(
        new_width > 0 && new_height > 0,
        "target dimensions must be non-zero"
    );
    let (w, h) = grid.shape();
    Grid::from_fn(new_width, new_height, |x, y| {
        let sx = ((x as f64 + 0.5) * w as f64 / new_width as f64 - 0.5).round();
        let sy = ((y as f64 + 0.5) * h as f64 / new_height as f64 - 0.5).round();
        let sx = sx.clamp(0.0, (w - 1) as f64) as usize;
        let sy = sy.clamp(0.0, (h - 1) as f64) as usize;
        grid.get(sx, sy).clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nearest_identity_when_same_size() {
        let g = Grid::from_fn(4, 3, |x, y| (x * 10 + y) as u16);
        let r = resize_nearest(&g, 4, 3);
        assert_eq!(g, r);
    }

    #[test]
    fn nearest_upscale_repeats_pixels() {
        let g = Grid::from_rows(vec![vec![1u16, 2], vec![3, 4]]).unwrap();
        let r = resize_nearest(&g, 4, 4);
        assert_eq!(*r.get(0, 0), 1);
        assert_eq!(*r.get(1, 0), 1);
        assert_eq!(*r.get(2, 0), 2);
        assert_eq!(*r.get(3, 3), 4);
    }

    proptest! {
        #[test]
        fn prop_nearest_only_produces_existing_values(
            w in 1usize..8, h in 1usize..8, nw in 1usize..12, nh in 1usize..12, seed in 0u64..200
        ) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let g = Grid::from_fn(w, h, |_, _| rng.gen_range(0u16..5));
            let r = resize_nearest(&g, nw, nh);
            prop_assert_eq!(r.shape(), (nw, nh));
            let originals: std::collections::HashSet<u16> = g.iter().copied().collect();
            for v in r.iter() {
                prop_assert!(originals.contains(v));
            }
        }
    }
}
