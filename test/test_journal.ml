(* Tests for the write-ahead session journal: record framing, CRC rejection,
   the torn-tail truncation property, resume, and deterministic replay of
   interactive sessions (including an in-process crash). *)

let temp_path () = Filename.temp_file "learnq_journal" ".wal"

let with_temp f =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let header = { Core.Journal.seed = 42; engine = "learn-test"; config = "k=3" }

let sample_events =
  Core.Journal.
    [
      Asked "/0/1";
      Answered ("/0/1", Core.Flaky.Label true);
      Asked "i:j with spaces\nand a newline";
      Answered ("i:j with spaces\nand a newline", Core.Flaky.Label false);
      Asked "r";
      Answered ("r", Core.Flaky.Refused);
      Answered ("t", Core.Flaky.Timed_out);
      Completed;
    ]

let write_sample path =
  let j = Core.Journal.create ~sync:Core.Journal.Off ~path header in
  List.iter (Core.Journal.append j) sample_events;
  Core.Journal.close j

let recovered_ok = function
  | Ok (r : Core.Journal.recovered) -> r
  | Error e -> Alcotest.failf "unexpected journal error: %s" (Core.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let test_crc32_check_value () =
  (* The standard CRC-32 check value ("123456789" -> 0xCBF43926). *)
  Alcotest.(check int) "empty" 0 (Core.Journal.crc32 "");
  Alcotest.(check int) "check value" 0xCBF43926 (Core.Journal.crc32 "123456789")

(* ------------------------------------------------------------------ *)
(* Roundtrip                                                           *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_temp (fun path ->
      write_sample path;
      let r = recovered_ok (Core.Journal.recover ~path) in
      Alcotest.(check bool) "header survives" true (r.header = Some header);
      Alcotest.(check bool) "events survive in order" true
        (r.events = sample_events);
      Alcotest.(check int) "nothing dropped" 0 r.dropped_bytes;
      Alcotest.(check int) "valid bytes = file size" r.valid_bytes
        (String.length (read_file path)))

let test_answered_order () =
  with_temp (fun path ->
      write_sample path;
      let r = recovered_ok (Core.Journal.recover ~path) in
      Alcotest.(check bool) "answered extracts replies in order" true
        (Core.Journal.answered r
        = [
            ("/0/1", Core.Flaky.Label true);
            ("i:j with spaces\nand a newline", Core.Flaky.Label false);
            ("r", Core.Flaky.Refused);
            ("t", Core.Flaky.Timed_out);
          ]))

(* ------------------------------------------------------------------ *)
(* The truncation property: any byte-cut yields the surviving prefix   *)
(* ------------------------------------------------------------------ *)

let is_prefix shorter longer =
  let rec go = function
    | [], _ -> true
    | x :: xs, y :: ys -> x = y && go (xs, ys)
    | _ :: _, [] -> false
  in
  go (shorter, longer)

let test_every_truncation_recovers () =
  with_temp (fun path ->
      write_sample path;
      let bytes = read_file path in
      let full = recovered_ok (Core.Journal.parse ~source:path bytes) in
      for cut = 0 to String.length bytes do
        let r =
          recovered_ok
            (Core.Journal.parse ~source:path (String.sub bytes 0 cut))
        in
        if not (is_prefix r.events full.events) then
          Alcotest.failf "cut at %d: events are not a prefix" cut;
        Alcotest.(check int)
          (Printf.sprintf "cut at %d accounts for every byte" cut)
          cut
          (r.valid_bytes + r.dropped_bytes)
      done)

let prop_truncation =
  (* Random journals (random items, random cut): the surviving prefix always
     parses, never errors. *)
  let item_gen =
    QCheck.Gen.(string_size ~gen:(char_range '\x01' '\xff') (0 -- 20))
  in
  let event_gen =
    QCheck.Gen.(
      item_gen >>= fun item ->
      oneofl
        Core.Journal.
          [
            Asked item;
            Answered (item, Core.Flaky.Label true);
            Answered (item, Core.Flaky.Label false);
            Answered (item, Core.Flaky.Refused);
            Answered (item, Core.Flaky.Timed_out);
            Completed;
          ])
  in
  let arb =
    QCheck.make
      QCheck.Gen.(pair (list_size (0 -- 12) event_gen) (0 -- 1000))
  in
  QCheck.Test.make ~name:"journal survives any truncation" ~count:40 arb
    (fun (events, cut_raw) ->
      with_temp (fun path ->
          let j = Core.Journal.create ~sync:Core.Journal.Off ~path header in
          List.iter (Core.Journal.append j) events;
          Core.Journal.close j;
          let bytes = read_file path in
          let cut = cut_raw mod (String.length bytes + 1) in
          match Core.Journal.parse ~source:path (String.sub bytes 0 cut) with
          | Error _ -> false
          | Ok r ->
              is_prefix r.events events && r.valid_bytes + r.dropped_bytes = cut))

(* ------------------------------------------------------------------ *)
(* Corruption is rejected with a positioned error                      *)
(* ------------------------------------------------------------------ *)

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Bytes.to_string b

let test_crc_mismatch_rejected () =
  with_temp (fun path ->
      write_sample path;
      let bytes = read_file path in
      (* Corrupt one payload byte of the header record, which starts right
         after the 8-byte magic; its payload starts 8 framing bytes later. *)
      let record_offset = 8 in
      let corrupted = flip_byte bytes (record_offset + 8) in
      match Core.Journal.parse ~source:path corrupted with
      | Ok _ -> Alcotest.fail "corrupted record accepted"
      | Error (Core.Error.Corrupt_journal { offset; path = p; _ }) ->
          Alcotest.(check int) "error positioned at record start" record_offset
            offset;
          Alcotest.(check string) "error names the file" path p
      | Error e ->
          Alcotest.failf "wrong error class: %s" (Core.Error.to_string e))

let test_corrupt_mid_file_keeps_nothing_after () =
  with_temp (fun path ->
      write_sample path;
      let bytes = read_file path in
      (* Corrupt the last byte: it belongs to the final record's payload. *)
      let corrupted = flip_byte bytes (String.length bytes - 1) in
      match Core.Journal.parse ~source:path corrupted with
      | Ok _ -> Alcotest.fail "corrupted tail record accepted"
      | Error (Core.Error.Corrupt_journal _) -> ()
      | Error e ->
          Alcotest.failf "wrong error class: %s" (Core.Error.to_string e))

let test_wrong_magic_rejected () =
  match Core.Journal.parse ~source:"x" "NOTAJRNL:also not a journal" with
  | Ok _ -> Alcotest.fail "garbage accepted as a journal"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Resume: torn tail truncated away, appends continue the prefix       *)
(* ------------------------------------------------------------------ *)

let test_resume_after_torn_tail () =
  with_temp (fun path ->
      write_sample path;
      let bytes = read_file path in
      (* Tear the last record: drop its final 3 bytes. *)
      write_file path (String.sub bytes 0 (String.length bytes - 3));
      match Core.Journal.resume ~sync:Core.Journal.Off ~path () with
      | Error e -> Alcotest.failf "resume failed: %s" (Core.Error.to_string e)
      | Ok (j, r) ->
          Alcotest.(check bool) "tail dropped" true (r.dropped_bytes > 0);
          Alcotest.(check int) "one event lost"
            (List.length sample_events - 1)
            (List.length r.events);
          Core.Journal.append j (Core.Journal.Asked "again");
          Core.Journal.close j;
          let r2 = recovered_ok (Core.Journal.recover ~path) in
          Alcotest.(check bool) "appended past the valid prefix" true
            (r2.events
            = List.filteri (fun i _ -> i < List.length sample_events - 1)
                sample_events
              @ [ Core.Journal.Asked "again" ]);
          Alcotest.(check int) "clean after repair" 0 r2.dropped_bytes)

let test_resume_without_header_fails () =
  with_temp (fun path ->
      (* Only the magic survived: nothing to resume. *)
      write_file path "LQJRNL1\n";
      match Core.Journal.resume ~path () with
      | Ok _ -> Alcotest.fail "resumed a journal with no header"
      | Error (Core.Error.Invalid_input _) -> ()
      | Error e ->
          Alcotest.failf "wrong error class: %s" (Core.Error.to_string e))

(* ------------------------------------------------------------------ *)
(* Replay: a toy threshold session, journaled, replayed, crashed       *)
(* ------------------------------------------------------------------ *)

(* Same concept class as test_core's interact tests: an int item is positive
   iff item >= t. *)
module Threshold_session = struct
  type query = int
  type item = int
  type state = { min_pos : int option; max_neg : int option }

  let init _ = { min_pos = None; max_neg = None }

  let record st item label =
    if label then
      { st with min_pos = Some (match st.min_pos with None -> item | Some m -> min m item) }
    else
      { st with max_neg = Some (match st.max_neg with None -> item | Some m -> max m item) }

  let determined st item =
    match (st.min_pos, st.max_neg) with
    | Some p, _ when item >= p -> Some true
    | _, Some n when item <= n -> Some false
    | _ -> None

  let candidate st = st.min_pos
  let pp_item = Format.pp_print_int
  let pp_query = Format.pp_print_int
end

module Threshold_loop = Core.Interact.Make (Threshold_session)

let encode_item = string_of_int
let items = List.init 30 Fun.id
let goal = 13
let oracle i = Core.Flaky.Label (i >= goal)

(* Recovered events plus the codecs replay needs; these sessions never
   checkpoint, so there is no state to decode. *)
let resume_of events =
  (events, int_of_string_opt, fun _ -> Error "no checkpoints here")

let test_replay_equals_live () =
  with_temp (fun path ->
      (* Live journaled session … *)
      let j = Core.Journal.create ~sync:Core.Journal.Off ~path header in
      let live = Threshold_loop.run_flaky ~journal:(j, encode_item) ~oracle ~items () in
      Core.Journal.close j;
      (* … replayed in full: same query, zero live questions. *)
      let r = recovered_ok (Core.Journal.recover ~path) in
      let replayed =
        Threshold_loop.run_flaky ~resume:(resume_of r.events) ~oracle ~items ()
      in
      Alcotest.(check (option int)) "same query" live.query replayed.query;
      Alcotest.(check int) "no live question on full replay" 0
        replayed.questions;
      Alcotest.(check int) "every answer replayed" live.questions
        replayed.replayed;
      Alcotest.(check bool) "completed record present" true
        (List.mem Core.Journal.Completed r.events))

let test_replay_is_idempotent () =
  with_temp (fun path ->
      let j = Core.Journal.create ~sync:Core.Journal.Off ~path header in
      let live = Threshold_loop.run_flaky ~journal:(j, encode_item) ~oracle ~items () in
      Core.Journal.close j;
      let r = recovered_ok (Core.Journal.recover ~path) in
      (* Duplicate every answer: the fold must treat repeats as no-ops. *)
      let doubled =
        List.concat_map
          (function Core.Journal.Answered _ as ev -> [ ev; ev ] | ev -> [ ev ])
          r.events
      in
      let replayed =
        Threshold_loop.run_flaky ~resume:(resume_of doubled) ~oracle ~items ()
      in
      Alcotest.(check (option int)) "same query" live.query replayed.query;
      Alcotest.(check int) "duplicates not re-recorded"
        (List.length (Core.Journal.answered r))
        replayed.replayed)

exception Crash

let test_crash_then_resume () =
  with_temp (fun path ->
      (* The uninterrupted reference run. *)
      let full = Threshold_loop.run_flaky ~oracle ~items () in
      (* A run whose oracle dies after k answers, mid-session. *)
      let k = 2 in
      let j = Core.Journal.create ~sync:Core.Journal.Off ~path header in
      let answers = ref 0 in
      let crashing i =
        if !answers >= k then raise Crash;
        incr answers;
        oracle i
      in
      (match
         Threshold_loop.run_flaky ~journal:(j, encode_item) ~oracle:crashing
           ~items ()
       with
      | _ -> Alcotest.fail "crash did not propagate"
      | exception Crash -> Core.Journal.close j);
      (* Resume: replay the journal, finish against the healthy oracle. *)
      match Core.Journal.resume ~sync:Core.Journal.Off ~path () with
      | Error e -> Alcotest.failf "resume failed: %s" (Core.Error.to_string e)
      | Ok (j2, r) ->
          let resumed =
            Threshold_loop.run_flaky ~journal:(j2, encode_item)
              ~resume:(resume_of r.events) ~oracle ~items ()
          in
          Core.Journal.close j2;
          Alcotest.(check (option int)) "same query as uninterrupted"
            full.query resumed.query;
          Alcotest.(check int) "crashed answers replayed, not re-asked" k
            resumed.replayed;
          Alcotest.(check int) "remaining questions asked live"
            (full.questions - k) resumed.questions;
          (* No item was asked twice across replay + live. *)
          let asked_items = List.map fst resumed.asked in
          Alcotest.(check int) "no duplicate question"
            (List.length asked_items)
            (List.length (List.sort_uniq compare asked_items)))

let test_refused_records_return_to_pool () =
  with_temp (fun path ->
      (* A journal whose only answers are a refusal and a timeout: on resume
         both items must be asked again (they return to the pool). *)
      let j = Core.Journal.create ~sync:Core.Journal.Off ~path header in
      Core.Journal.append j (Core.Journal.Asked (encode_item 5));
      Core.Journal.append j
        (Core.Journal.Answered (encode_item 5, Core.Flaky.Refused));
      Core.Journal.append j (Core.Journal.Asked (encode_item 20));
      Core.Journal.append j
        (Core.Journal.Answered (encode_item 20, Core.Flaky.Timed_out));
      Core.Journal.close j;
      let r = recovered_ok (Core.Journal.recover ~path) in
      let resumed =
        Threshold_loop.run_flaky ~resume:(resume_of r.events) ~oracle ~items ()
      in
      let reference = Threshold_loop.run_flaky ~oracle ~items () in
      Alcotest.(check int) "nothing replayed" 0 resumed.replayed;
      Alcotest.(check int) "full session ran live" reference.questions
        resumed.questions;
      Alcotest.(check (option int)) "same query" reference.query resumed.query)

(* ------------------------------------------------------------------ *)
(* Checkpoints and compaction                                          *)
(* ------------------------------------------------------------------ *)

let sample_ck =
  {
    Core.Journal.ck_qid = 4;
    ck_questions = 4;
    ck_pruned = 7;
    ck_refused = 1;
    ck_answered = [ "/0/1"; "i:j with spaces\nand a newline" ];
    (* The engine state is opaque and may itself contain NULs. *)
    ck_state = "twig1\n+/0/1\x00a second\x00NUL-packed field";
  }

let journal_ok = function
  | Ok j -> j
  | Error e -> Alcotest.failf "unexpected journal error: %s" (Core.Error.to_string e)

let test_checkpoint_roundtrip () =
  with_temp (fun path ->
      let j = Core.Journal.create ~sync:Core.Journal.Off ~path header in
      Core.Journal.append j (Core.Journal.Asked "a");
      Core.Journal.append_checkpoint j sample_ck;
      Core.Journal.append j (Core.Journal.Asked "b");
      Core.Journal.close j;
      let r = recovered_ok (Core.Journal.recover ~path) in
      Alcotest.(check bool) "checkpoint survives verbatim" true
        (r.events
        = [
            Core.Journal.Asked "a";
            Core.Journal.Checkpoint sample_ck;
            Core.Journal.Asked "b";
          ]))

let test_split_checkpoint_takes_last () =
  with_temp (fun path ->
      let j = Core.Journal.create ~sync:Core.Journal.Off ~path header in
      Core.Journal.append j (Core.Journal.Asked "pre");
      Core.Journal.append_checkpoint j { sample_ck with ck_qid = 1 };
      Core.Journal.append j (Core.Journal.Asked "mid");
      Core.Journal.append_checkpoint j sample_ck;
      Core.Journal.append j (Core.Journal.Asked "post");
      Core.Journal.close j;
      let r = recovered_ok (Core.Journal.recover ~path) in
      let ck, tail = Core.Journal.split_checkpoint r.events in
      Alcotest.(check bool) "the last checkpoint wins" true
        (ck = Some sample_ck);
      Alcotest.(check bool) "only post-checkpoint events remain" true
        (tail = [ Core.Journal.Asked "post" ]))

let test_split_checkpoint_none () =
  with_temp (fun path ->
      write_sample path;
      let r = recovered_ok (Core.Journal.recover ~path) in
      let ck, tail = Core.Journal.split_checkpoint r.events in
      Alcotest.(check bool) "no checkpoint" true (ck = None);
      Alcotest.(check bool) "full event list returned" true
        (tail = sample_events))

let test_compact_shrinks_then_resumes () =
  with_temp (fun path ->
      Sys.remove path;
      let j =
        journal_ok
          (Core.Journal.create_result ~sync:Core.Journal.Off ~path header)
      in
      for _ = 1 to 5 do
        List.iter (Core.Journal.append j) sample_events
      done;
      Core.Journal.flush j;
      let before = (Unix.stat path).Unix.st_size in
      (match Core.Journal.compact j sample_ck with
      | Ok () -> ()
      | Error e -> Alcotest.failf "compact: %s" (Core.Error.to_string e));
      let after = (Unix.stat path).Unix.st_size in
      Alcotest.(check bool) "the journal shrank" true (after < before);
      (* The compacted journal keeps accepting appends… *)
      Core.Journal.append j (Core.Journal.Asked "later");
      Core.Journal.close j;
      (* …and resumes as header + checkpoint + tail. *)
      let r = recovered_ok (Core.Journal.recover ~path) in
      Alcotest.(check bool) "header survives compaction" true
        (r.header = Some header);
      let ck, tail = Core.Journal.split_checkpoint r.events in
      Alcotest.(check bool) "the checkpoint is the snapshot" true
        (ck = Some sample_ck);
      Alcotest.(check bool) "the tail is the post-compaction append" true
        (tail = [ Core.Journal.Asked "later" ]);
      Alcotest.(check bool) "no write-aside residue" false
        (Sys.file_exists (path ^ ".compact")))

let test_compact_failure_leaves_journal_intact () =
  with_temp (fun path ->
      Sys.remove path;
      let vfs = Core.Vfs.faulty ~seed:1 Core.Flaky.no_disk_faults in
      let j =
        journal_ok
          (Core.Journal.create_result ~sync:Core.Journal.Always ~vfs ~path
             header)
      in
      List.iter (Core.Journal.append j) sample_events;
      Core.Vfs.set_full vfs true;
      (match Core.Journal.compact j sample_ck with
      | Ok () -> Alcotest.fail "compaction succeeded on a full disk"
      | Error (Core.Error.Storage { full; _ }) ->
          Alcotest.(check bool) "classified as disk-full" true full
      | Error e -> Alcotest.failf "wrong error: %s" (Core.Error.to_string e));
      (* The old journal is untouched and still appendable once the disk
         recovers. *)
      Core.Vfs.set_full vfs false;
      Core.Journal.append j (Core.Journal.Asked "after");
      Core.Journal.close j;
      let r = recovered_ok (Core.Journal.recover ~path) in
      Alcotest.(check bool) "every record survives the failed compaction"
        true
        (r.events = sample_events @ [ Core.Journal.Asked "after" ]))

(* ------------------------------------------------------------------ *)
(* Locking: one writer per journal, across processes                    *)
(* ------------------------------------------------------------------ *)

let test_lock_second_create_refused () =
  with_temp (fun path ->
      Sys.remove path;
      let j = journal_ok (Core.Journal.create_result ~path header) in
      Fun.protect
        ~finally:(fun () -> Core.Journal.close j)
        (fun () ->
          match Core.Journal.create_result ~path header with
          | Error (Core.Error.Journal_locked { pid; _ }) ->
              Alcotest.(check int) "lock names the holder" (Unix.getpid ()) pid
          | Ok j2 ->
              Core.Journal.close j2;
              Alcotest.fail "second writer acquired a held lock"
          | Error e ->
              Alcotest.failf "wrong error: %s" (Core.Error.to_string e)))

let test_lock_resume_while_open_refused () =
  with_temp (fun path ->
      Sys.remove path;
      let j = journal_ok (Core.Journal.create_result ~path header) in
      Fun.protect
        ~finally:(fun () -> Core.Journal.close j)
        (fun () ->
          match Core.Journal.resume ~path () with
          | Error (Core.Error.Journal_locked _) -> ()
          | Ok (j2, _) ->
              Core.Journal.close j2;
              Alcotest.fail "resumed a journal whose writer is live"
          | Error e ->
              Alcotest.failf "wrong error: %s" (Core.Error.to_string e)))

let test_lock_released_on_close () =
  with_temp (fun path ->
      Sys.remove path;
      let j = journal_ok (Core.Journal.create_result ~path header) in
      Core.Journal.append j (Core.Journal.Asked "x");
      Core.Journal.close j;
      Alcotest.(check bool) "lock file removed" false
        (Sys.file_exists (path ^ ".lock"));
      let j2, recovered = journal_ok (Core.Journal.resume ~path ()) in
      Core.Journal.close j2;
      Alcotest.(check int) "events survived" 1
        (List.length recovered.Core.Journal.events))

let test_lock_stale_holder_stolen () =
  (* A lock whose pid is dead is stale: fork a child, reap it, and plant
     its (now free) pid in the lock file. *)
  with_temp (fun path ->
      Sys.remove path;
      let dead_pid =
        match Unix.fork () with
        | 0 -> Unix._exit 0
        | pid ->
            ignore (Unix.waitpid [] pid);
            pid
      in
      write_file (path ^ ".lock") (string_of_int dead_pid);
      let j = journal_ok (Core.Journal.create_result ~path header) in
      Core.Journal.close j)

let test_lock_pid_reuse_stolen () =
  (* Regression for PID recycling: the lock stamp is pid:starttime, so a
     recorded holder with our (live) pid but an impossible starttime is a
     dead process whose pid was reborn — the lock is stale and stolen. *)
  with_temp (fun path ->
      Sys.remove path;
      write_file (path ^ ".lock") (Printf.sprintf "%d:1" (Unix.getpid ()));
      let j = journal_ok (Core.Journal.create_result ~path header) in
      Core.Journal.close j)

let test_lock_bare_pid_alive_refused () =
  (* A stamp-less (old-format) lock naming a live pid cannot be told apart
     from pid reuse, so it is never stolen: corrupting a live journal is
     worse than making an operator delete a stale lock. *)
  with_temp (fun path ->
      Sys.remove path;
      write_file (path ^ ".lock") (string_of_int (Unix.getpid ()));
      match Core.Journal.create_result ~path header with
      | Error (Core.Error.Journal_locked { pid; _ }) ->
          Alcotest.(check int) "names the live holder" (Unix.getpid ()) pid
      | Ok j ->
          Core.Journal.close j;
          Alcotest.fail "stole a bare-pid lock held by a live process"
      | Error e -> Alcotest.failf "wrong error: %s" (Core.Error.to_string e))

let test_lock_two_processes () =
  (* The real contest: a forked child must lose the lock race with a typed
     Journal_locked, not corrupt the file or hang. *)
  with_temp (fun path ->
      Sys.remove path;
      let j = journal_ok (Core.Journal.create_result ~path header) in
      Fun.protect
        ~finally:(fun () -> Core.Journal.close j)
        (fun () ->
          match Unix.fork () with
          | 0 ->
              let code =
                match Core.Journal.create_result ~path header with
                | Error (Core.Error.Journal_locked _) -> 0
                | Ok _ -> 1
                | Error _ -> 2
              in
              Unix._exit code
          | pid -> (
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> ()
              | _, Unix.WEXITED 1 ->
                  Alcotest.fail "child process acquired a held lock"
              | _, Unix.WEXITED n ->
                  Alcotest.failf "child saw the wrong error (exit %d)" n
              | _ -> Alcotest.fail "child died abnormally")))

let () =
  Alcotest.run "journal"
    [
      ( "format",
        [
          Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "answered order" `Quick test_answered_order;
          Alcotest.test_case "wrong magic" `Quick test_wrong_magic_rejected;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "every cut recovers" `Quick
            test_every_truncation_recovers;
          QCheck_alcotest.to_alcotest prop_truncation;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "crc mismatch positioned" `Quick
            test_crc_mismatch_rejected;
          Alcotest.test_case "corrupt tail record" `Quick
            test_corrupt_mid_file_keeps_nothing_after;
        ] );
      ( "resume",
        [
          Alcotest.test_case "after torn tail" `Quick
            test_resume_after_torn_tail;
          Alcotest.test_case "no header" `Quick test_resume_without_header_fails;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "split takes the last" `Quick
            test_split_checkpoint_takes_last;
          Alcotest.test_case "split without checkpoint" `Quick
            test_split_checkpoint_none;
          Alcotest.test_case "compaction shrinks then resumes" `Quick
            test_compact_shrinks_then_resumes;
          Alcotest.test_case "failed compaction leaves journal intact" `Quick
            test_compact_failure_leaves_journal_intact;
        ] );
      ( "replay",
        [
          Alcotest.test_case "replay equals live" `Quick test_replay_equals_live;
          Alcotest.test_case "idempotent" `Quick test_replay_is_idempotent;
          Alcotest.test_case "crash then resume" `Quick test_crash_then_resume;
          Alcotest.test_case "refusals return to pool" `Quick
            test_refused_records_return_to_pool;
        ] );
      ( "locking",
        [
          Alcotest.test_case "second create refused" `Quick
            test_lock_second_create_refused;
          Alcotest.test_case "resume while open refused" `Quick
            test_lock_resume_while_open_refused;
          Alcotest.test_case "released on close" `Quick
            test_lock_released_on_close;
          Alcotest.test_case "stale holder stolen" `Quick
            test_lock_stale_holder_stolen;
          Alcotest.test_case "pid reuse stolen" `Quick
            test_lock_pid_reuse_stolen;
          Alcotest.test_case "bare live pid refused" `Quick
            test_lock_bare_pid_alive_refused;
          Alcotest.test_case "two processes" `Quick test_lock_two_processes;
        ] );
    ]
