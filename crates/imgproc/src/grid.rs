//! A rectangular, row-major 2-D container.

use crate::error::GridError;
use serde::{Deserialize, Serialize};

/// A dense, rectangular, row-major grid of values.
///
/// `Grid` is the base raster type of the whole reproduction: label maps,
/// softmax channels, uncertainty heat maps, prior maps and rendered images
/// are all grids. Indexing is `(x, y)` with `x` the column (`0..width`) and
/// `y` the row (`0..height`).
///
/// ```
/// use metaseg_imgproc::Grid;
///
/// let mut g = Grid::filled(4, 3, 0u8);
/// g.set(2, 1, 7);
/// assert_eq!(*g.get(2, 1), 7);
/// assert_eq!(g.len(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Grid<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T> Grid<T> {
    /// Creates a grid from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::EmptyGrid`] if `width` or `height` is zero and
    /// [`GridError::LengthMismatch`] if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Result<Self, GridError> {
        if width == 0 || height == 0 {
            return Err(GridError::EmptyGrid);
        }
        if data.len() != width * height {
            return Err(GridError::LengthMismatch {
                expected: width * height,
                found: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Creates a grid from a vector of equally long rows.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::EmptyGrid`] for an empty input and
    /// [`GridError::RaggedRows`] if the rows have differing lengths.
    pub fn from_rows(rows: Vec<Vec<T>>) -> Result<Self, GridError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(GridError::EmptyGrid);
        }
        let width = rows[0].len();
        let height = rows.len();
        let mut data = Vec::with_capacity(width * height);
        for (row_idx, row) in rows.into_iter().enumerate() {
            if row.len() != width {
                return Err(GridError::RaggedRows {
                    expected: width,
                    found: row.len(),
                    row: row_idx,
                });
            }
            data.extend(row);
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Builds a grid by evaluating `f(x, y)` at every pixel.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Self {
            width,
            height,
            data,
        }
    }

    /// Width (number of columns) of the grid.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height (number of rows) of the grid.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Shape as `(width, height)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Total number of pixels.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the grid has zero pixels. Always `false` for constructed grids.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major flat index of pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` lies outside the grid.
    #[inline]
    fn index_of(&self, x: usize, y: usize) -> usize {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x}, {y}) out of bounds for {}x{} grid",
            self.width,
            self.height
        );
        y * self.width + x
    }

    /// Reference to the value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` lies outside the grid.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> &T {
        let idx = self.index_of(x, y);
        &self.data[idx]
    }

    /// Mutable reference to the value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` lies outside the grid.
    #[inline]
    pub fn get_mut(&mut self, x: usize, y: usize) -> &mut T {
        let idx = self.index_of(x, y);
        &mut self.data[idx]
    }

    /// Value at `(x, y)` if inside the grid, `None` otherwise.
    #[inline]
    pub fn checked_get(&self, x: isize, y: isize) -> Option<&T> {
        if x < 0 || y < 0 {
            return None;
        }
        let (x, y) = (x as usize, y as usize);
        if x >= self.width || y >= self.height {
            return None;
        }
        Some(&self.data[y * self.width + x])
    }

    /// Overwrites the value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` lies outside the grid.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: T) {
        let idx = self.index_of(x, y);
        self.data[idx] = value;
    }

    /// Reshapes the grid in place to `width` x `height`, filling every pixel
    /// with `value`. The backing buffer is reused, so a grid that is reset
    /// frame after frame (e.g. the extraction kernel's scratch planes)
    /// allocates only when a new shape exceeds every shape seen before.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn reset(&mut self, width: usize, height: usize, value: T)
    where
        T: Clone,
    {
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        self.width = width;
        self.height = height;
        self.data.clear();
        self.data.resize(width * height, value);
    }

    /// Flat row-major view of the grid contents.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat row-major view of the grid contents.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterator over `((x, y), &value)` pairs in row-major order.
    pub fn iter_pixels(&self) -> impl Iterator<Item = ((usize, usize), &T)> {
        let width = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| ((i % width, i / width), v))
    }

    /// Iterator over the values in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Mutable iterator over the values in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }

    /// Maps every value through `f`, producing a grid of the same shape.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Grid<U> {
        Grid {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// The 4-neighbourhood of `(x, y)` clipped to the grid.
    pub fn neighbors4(&self, x: usize, y: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(4);
        let (xi, yi) = (x as isize, y as isize);
        for (dx, dy) in [(-1isize, 0isize), (1, 0), (0, -1), (0, 1)] {
            let (nx, ny) = (xi + dx, yi + dy);
            if nx >= 0 && ny >= 0 && (nx as usize) < self.width && (ny as usize) < self.height {
                out.push((nx as usize, ny as usize));
            }
        }
        out
    }

    /// The 8-neighbourhood of `(x, y)` clipped to the grid.
    pub fn neighbors8(&self, x: usize, y: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(8);
        let (xi, yi) = (x as isize, y as isize);
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let (nx, ny) = (xi + dx, yi + dy);
                if nx >= 0 && ny >= 0 && (nx as usize) < self.width && (ny as usize) < self.height {
                    out.push((nx as usize, ny as usize));
                }
            }
        }
        out
    }
}

impl<T: Clone> Grid<T> {
    /// Creates a grid filled with copies of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn filled(width: usize, height: usize, value: T) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        Self {
            width,
            height,
            data: vec![value; width * height],
        }
    }
}

impl<T: Clone + PartialEq> Grid<T> {
    /// Counts pixels equal to `value`.
    pub fn count_equal(&self, value: &T) -> usize {
        self.data.iter().filter(|v| *v == value).count()
    }
}

impl Grid<f64> {
    /// Sum of all values.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all values. The grid is never empty, so this is well defined.
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Minimum value (NaN values are ignored; returns `f64::INFINITY` if all are NaN).
    pub fn min(&self) -> f64 {
        self.data
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum value (NaN values are ignored; returns `f64::NEG_INFINITY` if all are NaN).
    pub fn max(&self) -> f64 {
        self.data
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

impl<T> std::ops::Index<(usize, usize)> for Grid<T> {
    type Output = T;

    fn index(&self, (x, y): (usize, usize)) -> &T {
        self.get(x, y)
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for Grid<T> {
    fn index_mut(&mut self, (x, y): (usize, usize)) -> &mut T {
        self.get_mut(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Grid::from_vec(2, 2, vec![1, 2, 3]).is_err());
        assert!(Grid::from_vec(2, 2, vec![1, 2, 3, 4]).is_ok());
        assert_eq!(
            Grid::<u8>::from_vec(0, 2, vec![]),
            Err(GridError::EmptyGrid)
        );
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Grid::from_rows(vec![vec![1, 2], vec![3]]).unwrap_err();
        assert_eq!(
            err,
            GridError::RaggedRows {
                expected: 2,
                found: 1,
                row: 1
            }
        );
    }

    #[test]
    fn indexing_is_row_major() {
        let g = Grid::from_rows(vec![vec![1, 2, 3], vec![4, 5, 6]]).unwrap();
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(*g.get(0, 0), 1);
        assert_eq!(*g.get(2, 0), 3);
        assert_eq!(*g.get(0, 1), 4);
        assert_eq!(g[(2, 1)], 6);
        assert_eq!(g.as_slice(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn checked_get_handles_out_of_bounds() {
        let g = Grid::filled(3, 3, 1u8);
        assert_eq!(g.checked_get(-1, 0), None);
        assert_eq!(g.checked_get(3, 0), None);
        assert_eq!(g.checked_get(0, 3), None);
        assert_eq!(g.checked_get(2, 2), Some(&1));
    }

    #[test]
    fn neighbors_are_clipped() {
        let g = Grid::filled(3, 3, 0u8);
        assert_eq!(g.neighbors4(0, 0).len(), 2);
        assert_eq!(g.neighbors4(1, 1).len(), 4);
        assert_eq!(g.neighbors8(0, 0).len(), 3);
        assert_eq!(g.neighbors8(1, 1).len(), 8);
        assert_eq!(g.neighbors8(2, 2).len(), 3);
    }

    #[test]
    fn count_and_mask() {
        let g = Grid::from_rows(vec![vec![1, 2, 1], vec![1, 0, 2]]).unwrap();
        assert_eq!(g.count_equal(&1), 3);
        let m = g.map(|v| *v == 2);
        assert_eq!(m.count_equal(&true), 2);
    }

    #[test]
    fn float_statistics() {
        let g = Grid::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert!((g.sum() - 10.0).abs() < 1e-12);
        assert!((g.mean() - 2.5).abs() < 1e-12);
        assert_eq!(g.min(), 1.0);
        assert_eq!(g.max(), 4.0);
    }

    #[test]
    fn iter_pixels_visits_every_pixel_once() {
        let g = Grid::from_fn(4, 3, |x, y| x + 10 * y);
        let collected: Vec<_> = g.iter_pixels().collect();
        assert_eq!(collected.len(), 12);
        assert_eq!(collected[0], ((0, 0), &0));
        assert_eq!(collected[11], ((3, 2), &23));
    }

    proptest! {
        #[test]
        fn prop_from_fn_get_consistency(w in 1usize..20, h in 1usize..20) {
            let g = Grid::from_fn(w, h, |x, y| (x * 1000 + y) as u32);
            for y in 0..h {
                for x in 0..w {
                    prop_assert_eq!(*g.get(x, y), (x * 1000 + y) as u32);
                }
            }
        }

        #[test]
        fn prop_map_preserves_shape(w in 1usize..12, h in 1usize..12) {
            let g = Grid::filled(w, h, 3u8);
            let m = g.map(|v| *v as u32 * 2);
            prop_assert_eq!(m.shape(), (w, h));
            prop_assert!(m.iter().all(|v| *v == 6));
        }
    }
}
