(* Small helpers shared by the benches. *)

(* [f ()] and its wall-clock seconds. *)
let time f =
  let t0 = Core.Monotonic.now () in
  let x = f () in
  (x, Core.Monotonic.now () -. t0)

let median xs =
  let a = List.sort compare xs in
  List.nth a (List.length a / 2)

(* The value of [r], or a bench failure naming [what] and the error. *)
let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Core.Error.to_string e)

(* Nearest-rank percentile of an ascending array; 0 when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* A fresh directory for [f], removed with its files afterwards. *)
let with_temp_dir prefix f =
  let path = Filename.temp_file prefix ".d" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun e ->
             try Sys.remove (Filename.concat path e) with Sys_error _ -> ())
           (Sys.readdir path)
       with Sys_error _ -> ());
      try Unix.rmdir path with Unix.Unix_error _ -> ())
    (fun () -> f path)
