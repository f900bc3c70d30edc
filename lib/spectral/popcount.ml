(* SWAR bit count: per 2-bit field, then 4-bit, then byte sums, and the
   multiply adds the bytes into the top one. No table, so nothing is
   shared between domains or kept alive on the heap. On 63-bit ints the
   top field of each step is short, but the count it holds still fits. *)
let popcount x =
  let m2 = 0x3333_3333_3333_3333 in
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56
