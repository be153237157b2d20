(* Tests for the XML data model: trees, parsing, printing, annotations. *)

open Xmltree

let qcheck = QCheck_alcotest.to_alcotest
let tree_testable = Alcotest.testable Tree.pp Tree.equal

let sample = Parse.term "site(regions(africa(item(name,location)),asia),people)"

let test_tree_basic () =
  Alcotest.(check int) "size" 8 (Tree.size sample);
  Alcotest.(check int) "depth" 5 (Tree.depth sample);
  Alcotest.(check (list string)) "labels"
    [ "africa"; "asia"; "item"; "location"; "name"; "people"; "regions"; "site" ]
    (Tree.labels sample)

let test_node_at () =
  (match Tree.node_at sample [ 0; 0; 0 ] with
  | Some n -> Alcotest.(check string) "item node" "item" n.label
  | None -> Alcotest.fail "path should exist");
  Alcotest.(check bool) "missing path" true (Tree.node_at sample [ 5 ] = None);
  match Tree.node_at sample [] with
  | Some n -> Alcotest.(check string) "root" "site" n.label
  | None -> Alcotest.fail "root exists"

let test_all_paths_preorder () =
  let paths = Tree.all_paths sample in
  Alcotest.(check int) "one per node" (Tree.size sample) (List.length paths);
  Alcotest.(check (list (list int))) "prefix order"
    [ []; [ 0 ]; [ 0; 0 ]; [ 0; 0; 0 ]; [ 0; 0; 0; 0 ]; [ 0; 0; 0; 1 ]; [ 0; 1 ]; [ 1 ] ]
    paths

let test_paths_with_label () =
  Alcotest.(check (list (list int))) "items" [ [ 0; 0; 0 ] ]
    (Tree.paths_with_label sample "item")

let test_parent_path () =
  Alcotest.(check (option (list int))) "parent" (Some [ 0; 0 ])
    (Tree.parent_path [ 0; 0; 3 ]);
  Alcotest.(check (option (list int))) "root has none" None
    (Tree.parent_path [])

let test_descendants () =
  let ds = Tree.descendant_paths sample [ 0 ] in
  Alcotest.(check int) "regions has 5 descendants" 5 (List.length ds)

let test_text_nodes () =
  let t = Tree.node "name" [ Tree.text "Ciucanu" ] in
  Alcotest.(check (option string)) "value" (Some "Ciucanu") (Tree.value_of t);
  Alcotest.(check int) "element children" 0
    (List.length (Tree.element_children t));
  Alcotest.(check bool) "text detection" true (Tree.is_text (Tree.text "x"))

let test_equal_unordered () =
  let t1 = Parse.term "a(b,c(d,e))" and t2 = Parse.term "a(c(e,d),b)" in
  Alcotest.(check bool) "unordered equal" true (Tree.equal_unordered t1 t2);
  Alcotest.(check bool) "ordered differ" false (Tree.equal t1 t2);
  let t3 = Parse.term "a(b,c(d,d))" in
  Alcotest.(check bool) "different multisets" false (Tree.equal_unordered t1 t3)

(* ------------------------------------------------------------------ *)
(* XML parser                                                          *)
(* ------------------------------------------------------------------ *)

let test_parse_xml_simple () =
  let t = Parse.xml "<a><b/><c><d/></c></a>" in
  Alcotest.check tree_testable "structure" (Parse.term "a(b,c(d))") t

let test_parse_xml_attributes () =
  let t = Parse.xml {|<item id="i1" featured="yes"><name>Phone</name></item>|} in
  Alcotest.(check int) "three children" 3 (List.length t.children);
  match t.children with
  | [ a1; a2; name ] ->
      Alcotest.(check string) "@id" "@id" a1.label;
      Alcotest.(check string) "@featured" "@featured" a2.label;
      Alcotest.(check (option string)) "name text" (Some "Phone")
        (Tree.value_of name)
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_xml_text_and_entities () =
  let t = Parse.xml "<p>Tom &amp; Jerry &lt;3</p>" in
  Alcotest.(check (option string)) "unescaped" (Some "Tom & Jerry <3")
    (Tree.value_of t)

let test_parse_xml_declaration_comment () =
  let t =
    Parse.xml
      "<?xml version=\"1.0\"?><!-- a comment --><root><!-- inner --><x/></root>"
  in
  Alcotest.check tree_testable "skips misc" (Parse.term "root(x)") t

let test_parse_xml_cdata () =
  let t = Parse.xml "<a><![CDATA[1 < 2]]></a>" in
  Alcotest.(check (option string)) "cdata" (Some "1 < 2") (Tree.value_of t)

let test_parse_xml_errors () =
  let bad input =
    match Parse.xml input with
    | exception Parse.Syntax_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "mismatched tag" true (bad "<a></b>");
  Alcotest.(check bool) "unterminated" true (bad "<a>");
  Alcotest.(check bool) "trailing garbage" true (bad "<a/><b/>");
  Alcotest.(check bool) "no element" true (bad "just text")

let test_parse_xml_result_positions () =
  let pos input =
    match Parse.xml_result input with
    | Ok _ -> Alcotest.fail "expected a parse error"
    | Error (Core.Error.Parse { position = Some p; _ }) -> (p.line, p.column)
    | Error e -> Alcotest.fail ("error without position: " ^ Core.Error.to_string e)
  in
  (* Truncated element: the scanner stops at the end of line 2. *)
  Alcotest.(check (pair int int)) "truncated" (2, 5) (pos "<a>\n<bad");
  (* The mismatched closing tag sits on line 3. *)
  Alcotest.(check int) "mismatch line" 3 (fst (pos "<a>\n<b></b>\n</c>"));
  match Parse.xml_result ~source:"doc.xml" "garbage" with
  | Error e ->
      let msg = Core.Error.to_string e in
      Alcotest.(check bool) "names the source" true
        (String.length msg >= 7 && String.sub msg 0 7 = "doc.xml")
  | Ok _ -> Alcotest.fail "garbage must not parse"

(* Adversarial totality, via the fuzzing harness's structured generators
   rather than uniform string soup: structural junk (a charset biased
   toward markup metacharacters) and near-miss inputs (valid prints with a
   few random edits — the class that actually finds scanner bugs) must come
   back as [Error], never as an exception. *)
let prop_xml_result_total_on_adversarial_input =
  QCheck.Test.make ~name:"xml_result total on junk and near-miss input"
    ~count:500 QCheck.small_int (fun seed ->
      let g = Core.Prng.create seed in
      let input =
        if Core.Prng.bool g then Fuzz.Gen.junk g ~size:40
        else
          Fuzz.Gen.mutate_string g
            (Print.to_xml (Fuzz.Gen.xml_tree g ~size:8))
      in
      match Parse.xml_result input with
      | Ok _ | Error (Core.Error.Parse _) -> true
      | Error _ -> false)

(* The full representable XML surface — attributes (pulled into the tag by
   the printer), escaped text, mixed children — survives print/parse at
   both indentations, not just the label-only trees of [arbitrary_tree]. *)
let prop_xml_full_surface_roundtrip =
  QCheck.Test.make ~name:"xml print/parse roundtrip (full surface)"
    ~count:300 QCheck.small_int (fun seed ->
      let g = Core.Prng.create seed in
      let t = Fuzz.Gen.xml_tree g ~size:(1 + Core.Prng.int g 25) in
      Tree.equal t (Parse.xml (Print.to_xml t))
      && Tree.equal t (Parse.xml (Print.to_xml ~indent:0 t)))

let test_print_roundtrip () =
  let doc =
    Parse.xml
      {|<site><regions><africa><item id="i1"><name>Drum</name></item></africa></regions></site>|}
  in
  let reparsed = Parse.xml (Print.to_xml doc) in
  Alcotest.check tree_testable "print/parse roundtrip" doc reparsed

let test_print_escapes () =
  let doc = Tree.node "a" [ Tree.text "x<y&z" ] in
  let reparsed = Parse.xml (Print.to_xml doc) in
  Alcotest.check tree_testable "escaped roundtrip" doc reparsed

(* Random label-only trees roundtrip through the XML printer/parser. *)
let gen_tree =
  let open QCheck.Gen in
  let label = oneofl [ "a"; "b"; "c"; "d" ] in
  sized_size (1 -- 25)
  @@ fix (fun self n ->
         if n <= 1 then map Tree.leaf label
         else map2 Tree.node label (list_size (0 -- 3) (self (n / 4))))

let arbitrary_tree = QCheck.make ~print:Tree.to_string gen_tree

let prop_xml_roundtrip =
  QCheck.Test.make ~name:"xml print/parse roundtrip" ~count:200 arbitrary_tree
    (fun t -> Tree.equal t (Parse.xml (Print.to_xml t)))

let prop_term_roundtrip =
  QCheck.Test.make ~name:"term print/parse roundtrip" ~count:200 arbitrary_tree
    (fun t -> Tree.equal t (Parse.term (Tree.to_string t)))

let prop_size_positive =
  QCheck.Test.make ~name:"size ≥ depth ≥ 1" ~count:200 arbitrary_tree (fun t ->
      Tree.size t >= Tree.depth t && Tree.depth t >= 1)

let prop_paths_resolve =
  QCheck.Test.make ~name:"all_paths all resolve" ~count:100 arbitrary_tree
    (fun t ->
      List.for_all (fun p -> Tree.node_at t p <> None) (Tree.all_paths t))

(* ------------------------------------------------------------------ *)
(* Annotated                                                           *)
(* ------------------------------------------------------------------ *)

let test_annotated_make () =
  let a = Annotated.make sample [ 0; 0; 0 ] in
  Alcotest.(check string) "target label" "item" (Annotated.target_node a).label;
  match Annotated.make sample [ 9; 9 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad path must be rejected"

let test_annotated_examples_of_answers () =
  let exs = Annotated.examples_of_answers sample ~answers:[ [ 0; 0; 0 ] ] in
  Alcotest.(check int) "one per node" (Tree.size sample) (List.length exs);
  let pos = List.filter Core.Example.is_positive exs in
  Alcotest.(check int) "one positive" 1 (List.length pos)

let test_annotated_pp () =
  let doc = Parse.xml {|<a id="1"><b>x</b><b>y<c/>z</b></a>|} in
  let show p = Format.asprintf "%a" Annotated.pp (Annotated.make doc p) in
  Alcotest.(check string) "root" "/a" (show []);
  Alcotest.(check string) "attribute" "/a/@id" (show [ 0 ]);
  Alcotest.(check string) "repeated label" "/a/b[2]/c" (show [ 2; 1 ]);
  Alcotest.(check string) "lone text" "/a/b[1]/text()" (show [ 1; 0 ]);
  Alcotest.(check string) "repeated text" "/a/b[2]/text()[2]" (show [ 2; 2 ])

let () =
  Alcotest.run "xmltree"
    [
      ( "tree",
        [
          Alcotest.test_case "basic" `Quick test_tree_basic;
          Alcotest.test_case "node_at" `Quick test_node_at;
          Alcotest.test_case "all_paths preorder" `Quick test_all_paths_preorder;
          Alcotest.test_case "paths_with_label" `Quick test_paths_with_label;
          Alcotest.test_case "parent_path" `Quick test_parent_path;
          Alcotest.test_case "descendants" `Quick test_descendants;
          Alcotest.test_case "text nodes" `Quick test_text_nodes;
          Alcotest.test_case "unordered equality" `Quick test_equal_unordered;
          qcheck prop_size_positive;
          qcheck prop_paths_resolve;
        ] );
      ( "parse-print",
        [
          Alcotest.test_case "simple xml" `Quick test_parse_xml_simple;
          Alcotest.test_case "attributes" `Quick test_parse_xml_attributes;
          Alcotest.test_case "text and entities" `Quick test_parse_xml_text_and_entities;
          Alcotest.test_case "declaration and comments" `Quick test_parse_xml_declaration_comment;
          Alcotest.test_case "cdata" `Quick test_parse_xml_cdata;
          Alcotest.test_case "errors" `Quick test_parse_xml_errors;
          Alcotest.test_case "result positions" `Quick
            test_parse_xml_result_positions;
          qcheck prop_xml_result_total_on_adversarial_input;
          Alcotest.test_case "print roundtrip" `Quick test_print_roundtrip;
          Alcotest.test_case "print escapes" `Quick test_print_escapes;
          qcheck prop_xml_roundtrip;
          qcheck prop_term_roundtrip;
          qcheck prop_xml_full_surface_roundtrip;
        ] );
      ( "annotated",
        [
          Alcotest.test_case "make" `Quick test_annotated_make;
          Alcotest.test_case "examples of answers" `Quick test_annotated_examples_of_answers;
          Alcotest.test_case "pp label path" `Quick test_annotated_pp;
        ] );
    ]
