//! X006 — unwrap/expect/panic! in non-test library code.

fn positive(v: Option<u32>) -> u32 {
    let a = v.unwrap();
    let b = v.expect("fixture");
    if a != b {
        panic!("unreachable");
    }
    a
}

fn waived(v: Option<u32>) -> u32 {
    // xlint::allow(X006): fixture exercises the waiver path
    v.unwrap()
}

fn negative(v: Option<u32>) -> Result<u32, String> {
    v.ok_or_else(|| "missing value".to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        let v: Option<u32> = Some(1);
        let _ = v.unwrap();
        let _ = v.expect("tests may panic freely");
    }
}

// A test attribute binds to the next item only: on a brace-less item
// (`use …;`, `const …;`) it must not exempt the library fn that follows.
#[cfg(test)]
use std::fmt::Debug;

pub fn after_test_use(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[cfg(test)]
const N: usize = 3;

pub fn after_test_const(x: Option<u32>) -> u32 {
    x.expect("fixture")
}
