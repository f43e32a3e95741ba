// A function without a return type whose body holds a closure with an
// explicit `-> T`: the closure's arrow is not the function's return type.
fn f() {
    let g = |x: u8| -> u8 { x };
    let _ = g(1);
}
