//! Offline stand-in for `rayon`. The workspace uses rayon only for
//! `population.par_iter_mut().for_each(..)` in the GA evaluator; this
//! stand-in runs that sequentially. The daemon has no thread pool either:
//! a second core runs a second daemon.

pub mod prelude {
    /// Sequential drop-in for rayon's mutable parallel iterator.
    pub struct ParIterMut<'a, T>(std::slice::IterMut<'a, T>);

    impl<'a, T> ParIterMut<'a, T> {
        pub fn for_each<F: FnMut(&'a mut T)>(self, f: F) {
            self.0.for_each(f);
        }

        pub fn enumerate(self) -> std::iter::Enumerate<std::slice::IterMut<'a, T>> {
            self.0.enumerate()
        }
    }

    /// Sequential drop-in for rayon's shared parallel iterator.
    pub struct ParIter<'a, T>(std::slice::Iter<'a, T>);

    impl<'a, T> ParIter<'a, T> {
        pub fn for_each<F: FnMut(&'a T)>(self, f: F) {
            self.0.for_each(f);
        }

        pub fn map<O, F: FnMut(&'a T) -> O>(
            self,
            f: F,
        ) -> std::iter::Map<std::slice::Iter<'a, T>, F> {
            self.0.map(f)
        }
    }

    pub trait IntoParallelRefMutIterator<'a> {
        type Item;
        fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Item>;
    }

    pub trait IntoParallelRefIterator<'a> {
        type Item;
        fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
    }

    impl<'a, T: 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
        type Item = T;
        fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
            ParIterMut(self.iter_mut())
        }
    }

    impl<'a, T: 'a> IntoParallelRefMutIterator<'a> for [T] {
        type Item = T;
        fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
            ParIterMut(self.iter_mut())
        }
    }

    impl<'a, T: 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = T;
        fn par_iter(&'a self) -> ParIter<'a, T> {
            ParIter(self.iter())
        }
    }

    impl<'a, T: 'a> IntoParallelRefIterator<'a> for [T] {
        type Item = T;
        fn par_iter(&'a self) -> ParIter<'a, T> {
            ParIter(self.iter())
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn par_iter_mut_visits_everything() {
        let mut v = vec![1, 2, 3];
        v.par_iter_mut().for_each(|x| *x *= 10);
        assert_eq!(v, vec![10, 20, 30]);
    }

    #[test]
    fn par_iter_reads() {
        let v = vec![1, 2, 3];
        let mut sum = 0;
        v.par_iter().for_each(|x| sum += x);
        assert_eq!(sum, 6);
    }
}
