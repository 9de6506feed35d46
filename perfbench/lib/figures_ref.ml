(* (figure, algorithm, processors, net cycles) of every point of
   [Figures] at its default seed, as printed by
   [main.exe --print-figures-reference]. *)
let points : (int * string * int * int) list =
  [
    (3, "single-lock", 1, 243242);
    (3, "single-lock", 2, 2139480);
    (3, "single-lock", 4, 2461103);
    (3, "single-lock", 8, 3029974);
    (3, "mc", 1, 251538);
    (3, "mc", 2, 1765521);
    (3, "mc", 4, 1100791);
    (3, "mc", 8, 850315);
    (3, "valois", 1, 827538);
    (3, "valois", 2, 2619277);
    (3, "valois", 4, 1887755);
    (3, "valois", 8, 1829560);
    (3, "two-lock", 1, 239834);
    (3, "two-lock", 2, 2564850);
    (3, "two-lock", 4, 1553552);
    (3, "two-lock", 8, 1617839);
    (3, "plj", 1, 295538);
    (3, "plj", 2, 2287042);
    (3, "plj", 4, 1665858);
    (3, "plj", 8, 1236365);
    (3, "ms", 1, 275538);
    (3, "ms", 2, 2063497);
    (3, "ms", 4, 1398754);
    (3, "ms", 8, 931033);
    (4, "single-lock", 1, 351563);
    (4, "single-lock", 2, 3597994);
    (4, "single-lock", 4, 4239347);
    (4, "single-lock", 8, 5258871);
    (4, "mc", 1, 317227);
    (4, "mc", 2, 2294874);
    (4, "mc", 4, 1811951);
    (4, "mc", 8, 1162717);
    (4, "valois", 1, 901954);
    (4, "valois", 2, 2411712);
    (4, "valois", 4, 1748117);
    (4, "valois", 8, 1894205);
    (4, "two-lock", 1, 476543);
    (4, "two-lock", 2, 4876964);
    (4, "two-lock", 4, 4162456);
    (4, "two-lock", 8, 4016300);
    (4, "plj", 1, 361183);
    (4, "plj", 2, 2277884);
    (4, "plj", 4, 1692668);
    (4, "plj", 8, 1277411);
    (4, "ms", 1, 341275);
    (4, "ms", 2, 2166268);
    (4, "ms", 4, 1455848);
    (4, "ms", 8, 989116);
  ]
