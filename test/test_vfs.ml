(* Tests for the fault-injectable storage seam (Core.Vfs): the passthrough
   backend, scripted disk-full episodes, short writes, lying fsyncs, and
   crash truncation back to the durable prefix. *)

module Vfs = Core.Vfs

let with_temp_dir f =
  let dir = Filename.temp_file "learnq_vfs" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let no_faults = Core.Flaky.no_disk_faults

(* ------------------------------------------------------------------ *)
(* Passthrough                                                         *)
(* ------------------------------------------------------------------ *)

let test_real_roundtrip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "a" in
      let vfs = Vfs.real in
      let fh = Vfs.openf vfs path in
      Vfs.append vfs fh "hello ";
      Vfs.append vfs fh "world";
      Vfs.fsync vfs fh;
      Vfs.close vfs fh;
      Alcotest.(check bool) "exists" true (Vfs.exists vfs path);
      Alcotest.(check int) "size" 11 (Vfs.size vfs path);
      Alcotest.(check string) "contents" "hello world" (Vfs.read_file vfs path);
      let path2 = Filename.concat dir "b" in
      Vfs.rename vfs path path2;
      Alcotest.(check bool) "renamed away" false (Vfs.exists vfs path);
      Alcotest.(check string) "renamed contents" "hello world"
        (Vfs.read_file vfs path2);
      Vfs.unlink vfs path2;
      Alcotest.(check bool) "unlinked" false (Vfs.exists vfs path2);
      Alcotest.(check int) "real injects nothing" 0 (Vfs.fault_count vfs))

let test_faulty_clean_plan_is_faithful () =
  (* With every rate at zero the faulty backend must behave like the real
     one — except that a crash drops whatever was never fsynced. *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j" in
      let vfs = Vfs.faulty ~seed:7 no_faults in
      let fh = Vfs.openf vfs path in
      Vfs.append vfs fh "durable";
      Vfs.fsync vfs fh;
      Vfs.append vfs fh "-volatile";
      Vfs.close vfs fh;
      Alcotest.(check string) "both writes visible before the crash"
        "durable-volatile" (Vfs.read_file vfs path);
      Vfs.crash vfs;
      Alcotest.(check string) "crash keeps exactly the fsynced prefix"
        "durable" (Vfs.read_file vfs path);
      Alcotest.(check int) "no faults injected" 0 (Vfs.fault_count vfs))

(* ------------------------------------------------------------------ *)
(* Scripted disk-full (ENOSPC)                                         *)
(* ------------------------------------------------------------------ *)

let test_set_full_refuses_allocations () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j" in
      let vfs = Vfs.faulty ~seed:1 no_faults in
      let fh = Vfs.openf vfs path in
      Vfs.append vfs fh "ok";
      Vfs.set_full vfs true;
      (match Vfs.append vfs fh "more" with
      | () -> Alcotest.fail "append succeeded on a full disk"
      | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
      (match Vfs.openf vfs (Filename.concat dir "new") with
      | _ -> Alcotest.fail "created a file on a full disk"
      | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
      (match Vfs.link vfs path (Filename.concat dir "j.lock") with
      | () -> Alcotest.fail "linked a lock file on a full disk"
      | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
      (* The episode ends: the same operations succeed. *)
      Vfs.set_full vfs false;
      Vfs.append vfs fh "more";
      Vfs.close vfs fh;
      Alcotest.(check string) "post-heal append landed" "okmore"
        (Vfs.read_file vfs path);
      Alcotest.(check bool) "ENOSPC faults were logged" true
        (List.exists
           (fun f -> f.Vfs.f_kind = Vfs.Enospc)
           (Vfs.faults vfs)))

(* ------------------------------------------------------------------ *)
(* Short writes                                                        *)
(* ------------------------------------------------------------------ *)

let test_short_write_leaves_torn_prefix () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j" in
      let vfs =
        Vfs.faulty ~seed:3 (Core.Flaky.disk ~short_write:1.0 ())
      in
      let fh = Vfs.openf vfs path in
      let payload = "0123456789" in
      (match Vfs.append vfs fh payload with
      | () -> Alcotest.fail "short write reported success"
      | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
      Vfs.close vfs fh;
      let landed = Vfs.read_file vfs path in
      Alcotest.(check bool) "a strict prefix landed" true
        (String.length landed > 0
        && String.length landed < String.length payload
        && String.equal landed (String.sub payload 0 (String.length landed)));
      Alcotest.(check bool) "the tear was logged with its length" true
        (List.exists
           (fun f ->
             match f.Vfs.f_kind with
             | Vfs.Short_write n -> n = String.length landed
             | _ -> false)
           (Vfs.faults vfs)))

(* ------------------------------------------------------------------ *)
(* Lying fsync                                                         *)
(* ------------------------------------------------------------------ *)

let test_lying_fsync_loses_acked_bytes () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j" in
      let vfs =
        Vfs.faulty ~seed:5 (Core.Flaky.disk ~lying_fsync:1.0 ())
      in
      let fh = Vfs.openf vfs path in
      Vfs.append vfs fh "acked-but-lost";
      Vfs.fsync vfs fh;
      Vfs.close vfs fh;
      Vfs.crash vfs;
      Alcotest.(check string) "the acked bytes are gone" ""
        (Vfs.read_file vfs path);
      Alcotest.(check bool) "the lie was logged" true
        (List.exists
           (fun f -> f.Vfs.f_kind = Vfs.Lying_fsync)
           (Vfs.faults vfs)))

(* ------------------------------------------------------------------ *)
(* Torn crash truncation                                               *)
(* ------------------------------------------------------------------ *)

let test_torn_crash_keeps_strict_prefix_of_tail () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j" in
      let vfs = Vfs.faulty ~seed:11 (Core.Flaky.disk ~torn:1.0 ()) in
      let fh = Vfs.openf vfs path in
      Vfs.append vfs fh "safe|";
      Vfs.fsync vfs fh;
      Vfs.append vfs fh "in-flight-record";
      Vfs.close vfs fh;
      Vfs.crash vfs;
      let survived = Vfs.read_file vfs path in
      Alcotest.(check bool) "durable prefix intact" true
        (String.length survived >= 5
        && String.sub survived 0 5 = "safe|");
      Alcotest.(check bool) "a strict prefix of the tail was kept" true
        (String.length survived < String.length "safe|in-flight-record");
      Alcotest.(check bool) "the tear was logged" true
        (List.exists
           (fun f -> match f.Vfs.f_kind with Vfs.Torn _ -> true | _ -> false)
           (Vfs.faults vfs)))

let test_reopen_after_crash_counts_survivors_durable () =
  (* Bytes present at open predate the crash boundary: they must survive
     the next crash even without a new fsync. *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j" in
      let vfs = Vfs.faulty ~seed:13 no_faults in
      let fh = Vfs.openf vfs path in
      Vfs.append vfs fh "first";
      Vfs.fsync vfs fh;
      Vfs.close vfs fh;
      Vfs.crash vfs;
      let fh2 = Vfs.openf vfs path in
      Vfs.append vfs fh2 "-second";
      Vfs.close vfs fh2;
      Vfs.crash vfs;
      Alcotest.(check string) "pre-existing bytes survive, new tail dropped"
        "first" (Vfs.read_file vfs path))

(* Two domains write two files of one faulty backend, one after the other
   in either order and then at once: each file gets the same faults every
   time, whatever the other domain did in between. *)
let test_fault_streams_per_file () =
  let faults_by_file schedule =
    with_temp_dir (fun dir ->
        let vfs =
          Vfs.faulty ~seed:17
            (Core.Flaky.disk ~enospc:0.1 ~eio:0.1 ~short_write:0.1
               ~lying_fsync:0.3 ~torn:0.5 ())
        in
        let write name () =
          let fh = Vfs.openf vfs (Filename.concat dir name) in
          for i = 1 to 50 do
            (try Vfs.append vfs fh (string_of_int i)
             with Unix.Unix_error _ -> ());
            Vfs.fsync vfs fh
          done;
          Vfs.close vfs fh
        in
        schedule (write "a") (write "b");
        Vfs.crash vfs;
        let of_file name (f : Vfs.fault) =
          if Filename.basename f.f_path = name then Some (f.f_op, f.f_kind)
          else None
        in
        List.map (fun name -> List.filter_map (of_file name) (Vfs.faults vfs))
          [ "a"; "b" ])
  in
  let in_turn a b = List.iter (fun f -> Domain.(join (spawn f))) [ a; b ] in
  let a_then_b = faults_by_file in_turn in
  Alcotest.(check bool) "faults were injected" true
    (List.for_all (( <> ) []) a_then_b);
  Alcotest.(check bool) "each file's faults do not depend on the order" true
    (faults_by_file (fun a b -> in_turn b a) = a_then_b
    && faults_by_file (fun a b ->
           let d = Domain.spawn a in
           b ();
           Domain.join d)
       = a_then_b)

let () =
  Alcotest.run "vfs"
    [
      ( "passthrough",
        [
          Alcotest.test_case "real roundtrip" `Quick test_real_roundtrip;
          Alcotest.test_case "clean faulty plan is faithful" `Quick
            test_faulty_clean_plan_is_faithful;
        ] );
      ( "faults",
        [
          Alcotest.test_case "disk-full refuses allocations" `Quick
            test_set_full_refuses_allocations;
          Alcotest.test_case "short write leaves a torn prefix" `Quick
            test_short_write_leaves_torn_prefix;
          Alcotest.test_case "lying fsync loses acked bytes" `Quick
            test_lying_fsync_loses_acked_bytes;
        ] );
      ( "crash",
        [
          Alcotest.test_case "torn crash keeps a strict tail prefix" `Quick
            test_torn_crash_keeps_strict_prefix_of_tail;
          Alcotest.test_case "reopened bytes count durable" `Quick
            test_reopen_after_crash_counts_survivors_durable;
        ] );
      ( "streams",
        [
          Alcotest.test_case "each file has its own fault stream" `Quick
            test_fault_streams_per_file;
        ] );
    ]
