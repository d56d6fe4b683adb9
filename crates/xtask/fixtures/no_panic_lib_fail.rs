//! Expected-fail fixture for `no-panic-lib`: every marked line must
//! produce exactly one diagnostic of that rule.

pub fn load(input: Option<u32>) -> u32 {
    let v = input.unwrap(); //~ no-panic-lib
    let w = input.expect("value must be present"); //~ no-panic-lib
    let _ = input.expect(&format!("nested {}, {}", 1, 2)); //~ no-panic-lib
    let _ = input.ok_or(()).expect("trailing comma",); //~ no-panic-lib
    assert!(v < 100, "too big"); //~ no-panic-lib
    if w == 0 {
        panic!("zero is invalid"); //~ no-panic-lib
    }
    v + w
}
