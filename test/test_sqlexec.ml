(* SQL subset: lexer, parser, and executor semantics, with emphasis on the
   constructs the verification queries use (OPENJSON, LAG, MERKLETREEAGG,
   LEDGERHASH, outer joins, GROUP BY). *)

open Relation

let vi = Value.int
let vs s = Value.String s

let catalog =
  Sqlexec.Executor.catalog_of_tables
    [
      ( "emp",
        ( [ "id"; "name"; "dept"; "salary" ],
          [
            [| vi 1; vs "alice"; vs "eng"; vi 100 |];
            [| vi 2; vs "bob"; vs "eng"; vi 80 |];
            [| vi 3; vs "carol"; vs "hr"; vi 90 |];
            [| vi 4; vs "dan"; vs "sales"; vi 70 |];
            [| vi 5; vs "eve"; vs "eng"; Value.Null |];
          ] ) );
      ( "dept",
        ( [ "name"; "building" ],
          [ [| vs "eng"; vs "B1" |]; [| vs "hr"; vs "B2" |]; [| vs "legal"; vs "B9" |] ]
        ) );
    ]

let q text = Sqlexec.Executor.query catalog text
let rows text = (q text).Sqlexec.Rel.rows
let cell_int v = match v with Value.Int i -> i | _ -> Alcotest.fail "not an int"

let first_cell text =
  match rows text with
  | [ row ] -> row.(0)
  | rs -> Alcotest.failf "expected one row, got %d" (List.length rs)

(* --- lexer --- *)

let test_lexer_tokens () =
  let toks = Sqlexec.Lexer.tokenize "SELECT a.b, 'it''s', 1.5e2 <= [col] -- c" in
  (* SELECT, a, ., b, ",", 'it's', ",", 1.5e2, <=, [col], EOF *)
  Alcotest.(check int) "token count incl EOF" 11 (List.length toks);
  (match List.nth toks 5 with
  | Sqlexec.Lexer.String_lit s -> Alcotest.(check string) "escape" "it's" s
  | _ -> Alcotest.fail "expected string literal");
  match List.nth toks 9 with
  | Sqlexec.Lexer.Quoted_ident s -> Alcotest.(check string) "quoted" "col" s
  | _ -> Alcotest.fail "expected quoted ident"

let test_lexer_errors () =
  List.iter
    (fun input ->
      match Sqlexec.Lexer.tokenize input with
      | exception Sqlexec.Lexer.Lex_error _ -> ()
      | _ -> Alcotest.failf "accepted %s" input)
    [ "'unterminated"; "[unterminated"; "SELECT ^"; "/* open" ]

let test_lexer_comments () =
  Alcotest.(check int) "comments skipped" 3
    (List.length (Sqlexec.Lexer.tokenize "a /* x\ny */ b -- trail"))

(* --- parser --- *)

let test_parser_rejects () =
  List.iter
    (fun input ->
      match Sqlexec.Parser.parse input with
      | exception Sqlexec.Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %s" input)
    [
      "FROM x";
      "SELECT";
      "SELECT 1 FROM";
      "SELECT 1 WHERE";
      "SELECT 1 extra garbage (";
      "SELECT a FROM t JOIN u";
      "SELECT CASE END";
      "SELECT LAG(x) FROM t";
    ]

let test_parser_expr () =
  (* precedence: OR < AND < NOT < cmp < additive < multiplicative *)
  let e = Sqlexec.Parser.parse_expr "1 + 2 * 3 = 7 AND NOT FALSE OR x IS NULL" in
  match e with Sqlexec.Ast.Binop (Sqlexec.Ast.Or, _, _) -> () | _ -> Alcotest.fail "OR should be at the top"

(* --- executor --- *)

let test_select_where_order () =
  let r = q "SELECT name FROM emp WHERE salary >= 80 ORDER BY salary DESC" in
  Alcotest.(check (list string)) "names" [ "alice"; "carol"; "bob" ]
    (List.map (fun row -> Value.to_string row.(0)) r.Sqlexec.Rel.rows)

let test_select_star () =
  let r = q "SELECT * FROM dept" in
  Alcotest.(check int) "arity" 2 (Sqlexec.Rel.arity r);
  Alcotest.(check int) "rows" 3 (Sqlexec.Rel.cardinality r)

let test_limit () =
  Alcotest.(check int) "limit" 2 (List.length (rows "SELECT id FROM emp ORDER BY id LIMIT 2"))

let test_arithmetic_and_case () =
  Alcotest.(check int) "arith" 7 (cell_int (first_cell "SELECT 1 + 2 * 3"));
  Alcotest.(check int) "parens" 9 (cell_int (first_cell "SELECT (1 + 2) * 3"));
  Alcotest.(check int) "mod" 2 (cell_int (first_cell "SELECT 17 % 5"));
  Alcotest.(check string) "case" "low"
    (Value.to_string
       (first_cell "SELECT CASE WHEN 1 > 2 THEN 'high' ELSE 'low' END"));
  Alcotest.(check bool) "div by zero" true
    (match q "SELECT 1 / 0" with
    | exception Sqlexec.Executor.Exec_error _ -> true
    | _ -> false)

let test_three_valued_logic () =
  (* NULL salary must not satisfy either branch of a comparison. *)
  Alcotest.(check int) "null filtered" 4
    (List.length (rows "SELECT id FROM emp WHERE salary >= 0 OR salary < 0"));
  Alcotest.(check int) "is null" 1
    (List.length (rows "SELECT id FROM emp WHERE salary IS NULL"));
  Alcotest.(check int) "is not null" 4
    (List.length (rows "SELECT id FROM emp WHERE salary IS NOT NULL"));
  Alcotest.(check bool) "null concat" true
    (first_cell "SELECT 'a' || NULL" = Value.Null);
  Alcotest.(check int) "in list" 2
    (List.length (rows "SELECT id FROM emp WHERE dept IN ('hr', 'sales')"))

let test_group_by_having () =
  let r =
    q
      "SELECT dept, COUNT(*) n, SUM(salary) total, MIN(salary) lo, \
       MAX(salary) hi, AVG(salary) mean FROM emp GROUP BY dept \
       HAVING COUNT(*) > 1 ORDER BY dept"
  in
  Alcotest.(check int) "one group" 1 (Sqlexec.Rel.cardinality r);
  let row = List.hd r.Sqlexec.Rel.rows in
  Alcotest.(check int) "count includes null-salary row" 3 (cell_int row.(1));
  Alcotest.(check int) "sum skips nulls" 180 (cell_int row.(2));
  Alcotest.(check int) "min" 80 (cell_int row.(3));
  Alcotest.(check int) "max" 100 (cell_int row.(4))

let test_implicit_group () =
  Alcotest.(check int) "count all" 5 (cell_int (first_cell "SELECT COUNT(*) FROM emp"));
  Alcotest.(check int) "count expr skips null" 4
    (cell_int (first_cell "SELECT COUNT(salary) FROM emp"))

let test_joins () =
  Alcotest.(check int) "inner" 4
    (List.length (rows "SELECT e.id FROM emp e JOIN dept d ON e.dept = d.name"));
  Alcotest.(check int) "left keeps dan" 5
    (List.length (rows "SELECT e.id FROM emp e LEFT JOIN dept d ON e.dept = d.name"));
  Alcotest.(check int) "right keeps legal" 5
    (List.length (rows "SELECT d.name FROM emp e RIGHT JOIN dept d ON e.dept = d.name"));
  Alcotest.(check int) "full" 6
    (List.length (rows "SELECT e.id FROM emp e FULL JOIN dept d ON e.dept = d.name"));
  Alcotest.(check int) "left unmatched has nulls" 1
    (List.length
       (rows
          "SELECT e.id FROM emp e LEFT JOIN dept d ON e.dept = d.name \
           WHERE d.building IS NULL"))

let test_subquery () =
  Alcotest.(check int) "subquery" 2
    (cell_int
       (first_cell
          "SELECT COUNT(*) FROM (SELECT dept FROM emp WHERE salary > 75 \
           GROUP BY dept) x"))

let test_openjson () =
  let r =
    q
      {|SELECT j.a, j.b FROM OPENJSON('[{"a":1,"b":"x"},{"a":2},{"b":"z","c":true}]') j ORDER BY j.a|}
  in
  Alcotest.(check int) "rows" 3 (Sqlexec.Rel.cardinality r);
  Alcotest.(check int) "arity" 2 (Sqlexec.Rel.arity r);
  (* missing keys surface as NULL *)
  Alcotest.(check int) "nulls for missing" 1
    (List.length
       (rows
          {|SELECT j.a FROM OPENJSON('[{"a":1},{"b":2}]') j WHERE j.a IS NULL|}))

let test_lag () =
  let r = q "SELECT id, LAG(id) OVER (ORDER BY id) p FROM emp ORDER BY id" in
  let ps =
    List.map (fun row -> row.(1)) r.Sqlexec.Rel.rows
  in
  Alcotest.(check bool) "first is null" true (List.hd ps = Value.Null);
  Alcotest.(check (list int)) "shifted" [ 1; 2; 3; 4 ]
    (List.filter_map (function Value.Int i -> Some i | _ -> None) ps);
  (* LAG over a DESC ordering *)
  let r2 = q "SELECT id, LAG(id) OVER (ORDER BY id DESC) p FROM emp ORDER BY id" in
  let row1 = List.hd r2.Sqlexec.Rel.rows in
  Alcotest.(check int) "desc lag of id 1 is 2" 2 (cell_int row1.(1))

let test_ledgerhash_and_merkleagg () =
  (* LEDGERHASH must agree with the library-level builtin. *)
  let via_sql = first_cell "SELECT LEDGERHASH(1, 'x')" in
  let direct = Sqlexec.Builtins.ledgerhash [ vi 1; vs "x" ] in
  Alcotest.(check bool) "ledgerhash agrees" true (Value.equal via_sql direct);
  (* MERKLETREEAGG over one leaf is the leaf. *)
  let leaf =
    match direct with Value.String h -> h | _ -> assert false
  in
  let r =
    q
      (Printf.sprintf
         "SELECT dept, MERKLETREEAGG(LEDGERHASH(1, 'x') ORDER BY id) root \
          FROM emp WHERE id = 1 GROUP BY dept")
  in
  Alcotest.(check string) "single-leaf root" leaf
    (Value.to_string (List.hd r.Sqlexec.Rel.rows).(1));
  (* Aggregation order changes the root. *)
  let root_by order =
    Value.to_string
      (List.hd
         (rows
            (Printf.sprintf
               "SELECT MERKLETREEAGG(LEDGERHASH(id) ORDER BY id %s) FROM emp"
               order))).(0)
  in
  Alcotest.(check bool) "order sensitivity" false
    (String.equal (root_by "ASC") (root_by "DESC"))

let test_scalar_functions () =
  Alcotest.(check int) "len" 5 (cell_int (first_cell "SELECT LEN('hello')"));
  Alcotest.(check string) "upper" "ABC" (Value.to_string (first_cell "SELECT UPPER('abc')"));
  Alcotest.(check string) "substring" "ell"
    (Value.to_string (first_cell "SELECT SUBSTRING('hello', 2, 3)"));
  Alcotest.(check int) "coalesce" 3 (cell_int (first_cell "SELECT COALESCE(NULL, NULL, 3)"));
  Alcotest.(check bool) "nullif" true (first_cell "SELECT NULLIF(1, 1)" = Value.Null);
  Alcotest.(check int) "cast_int" 42 (cell_int (first_cell "SELECT CAST_INT('42')"));
  Alcotest.(check int) "json_value" 7
    (cell_int (first_cell {|SELECT JSON_VALUE('{"k":7}', 'k')|}));
  Alcotest.(check bool) "unknown function" true
    (match q "SELECT NO_SUCH_FN(1)" with
    | exception Sqlexec.Executor.Exec_error _ -> true
    | _ -> false)

let test_semantic_errors () =
  List.iter
    (fun text ->
      match q text with
      | exception Sqlexec.Executor.Exec_error _ -> ()
      | _ -> Alcotest.failf "accepted %s" text)
    [
      "SELECT zzz FROM emp";
      "SELECT id FROM no_such_table";
      "SELECT name FROM emp e JOIN dept d ON e.dept = d.name WHERE name = 'x'";
      (* ambiguous *)
      "SELECT SUM(name) FROM emp";
      "SELECT * FROM emp GROUP BY dept";
    ]

let test_like () =
  Alcotest.(check int) "prefix" 1
    (List.length (rows "SELECT id FROM emp WHERE name LIKE 'al%'"));
  Alcotest.(check int) "contains" 3
    (List.length (rows "SELECT id FROM emp WHERE name LIKE '%a%'"));
  Alcotest.(check int) "underscore" 1
    (List.length (rows "SELECT id FROM emp WHERE name LIKE '_ob'"));
  Alcotest.(check int) "not like" 2
    (List.length (rows "SELECT id FROM emp WHERE name NOT LIKE '%a%'"));
  Alcotest.(check int) "percent matches empty" 5
    (List.length (rows "SELECT id FROM emp WHERE name LIKE '%'"));
  Alcotest.(check bool) "null 3vl" true
    (first_cell "SELECT NULL LIKE 'x'" = Value.Null)

let test_between () =
  Alcotest.(check int) "inclusive" 3
    (List.length (rows "SELECT id FROM emp WHERE salary BETWEEN 80 AND 100"));
  Alcotest.(check int) "not between" 1
    (List.length (rows "SELECT id FROM emp WHERE salary NOT BETWEEN 80 AND 100"));
  Alcotest.(check int) "chained with AND" 2
    (List.length
       (rows "SELECT id FROM emp WHERE salary BETWEEN 80 AND 100 AND dept = 'eng'"))

let test_distinct () =
  Alcotest.(check int) "distinct depts" 3
    (List.length (rows "SELECT DISTINCT dept FROM emp"));
  Alcotest.(check int) "distinct pairs" 5
    (List.length (rows "SELECT DISTINCT dept, id FROM emp"));
  let r = q "SELECT DISTINCT dept FROM emp ORDER BY dept" in
  Alcotest.(check (list string)) "ordered" [ "eng"; "hr"; "sales" ]
    (List.map (fun row -> Value.to_string row.(0)) r.Sqlexec.Rel.rows)

let test_not_in () =
  Alcotest.(check int) "not in" 2
    (List.length (rows "SELECT id FROM emp WHERE dept NOT IN ('eng')"))

let test_subquery_expressions () =
  Alcotest.(check int) "scalar subquery in WHERE" 1
    (List.length
       (rows
          "SELECT id FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)"));
  Alcotest.(check int) "above average" 2
    (List.length
       (rows
          "SELECT id FROM emp WHERE salary > (SELECT AVG(salary) FROM emp)"));
  Alcotest.(check int) "exists true" 5
    (List.length
       (rows "SELECT id FROM emp WHERE EXISTS (SELECT 1 FROM dept)"));
  Alcotest.(check int) "exists false" 0
    (List.length
       (rows
          "SELECT id FROM emp WHERE EXISTS            (SELECT 1 FROM dept WHERE name = 'zzz')"));
  Alcotest.(check bool) "empty scalar is null" true
    (first_cell "SELECT (SELECT name FROM dept WHERE name = 'zzz')" = Value.Null);
  Alcotest.(check bool) "multi-row scalar rejected" true
    (match q "SELECT (SELECT name FROM dept)" with
    | exception Sqlexec.Executor.Exec_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "multi-column scalar rejected" true
    (match q "SELECT (SELECT name, building FROM dept LIMIT 1)" with
    | exception Sqlexec.Executor.Exec_error _ -> true
    | _ -> false)

let test_no_from () =
  Alcotest.(check int) "constant select" 3 (cell_int (first_cell "SELECT 3"))

let test_order_by_input_column () =
  (* ORDER BY a column that is not projected. *)
  let r = q "SELECT name FROM emp WHERE salary IS NOT NULL ORDER BY salary" in
  Alcotest.(check (list string)) "by salary" [ "dan"; "bob"; "carol"; "alice" ]
    (List.map (fun row -> Value.to_string row.(0)) r.Sqlexec.Rel.rows)

(* --- temporal (FOR SYSTEM_TIME AS OF) --- *)

let test_as_of_parses () =
  (match (Sqlexec.Parser.parse "SELECT * FROM emp FOR SYSTEM_TIME AS OF 5").Sqlexec.Ast.from with
  | Some (Sqlexec.Ast.Table { name = "emp"; alias = None; as_of = Some (Sqlexec.Ast.Lit (Value.Int 5)) }) -> ()
  | _ -> Alcotest.fail "expected Table with as_of = Some (Lit 5)");
  (* The alias can sit on either side of the temporal clause. *)
  (match (Sqlexec.Parser.parse "SELECT e.name FROM emp e FOR SYSTEM_TIME AS OF 1000.5").Sqlexec.Ast.from with
  | Some (Sqlexec.Ast.Table { alias = Some "e"; as_of = Some _; _ }) -> ()
  | _ -> Alcotest.fail "alias-before-clause");
  match (Sqlexec.Parser.parse "SELECT e.name FROM emp FOR SYSTEM_TIME AS OF 1000.5 e").Sqlexec.Ast.from with
  | Some (Sqlexec.Ast.Table { alias = Some "e"; as_of = Some _; _ }) -> ()
  | _ -> Alcotest.fail "alias-after-clause"

let test_as_of_parser_rejects () =
  List.iter
    (fun input ->
      match Sqlexec.Parser.parse input with
      | exception Sqlexec.Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %s" input)
    [
      "SELECT * FROM emp FOR SYSTEM_TIME 5";
      "SELECT * FROM emp FOR SYSTEM_TIME AS 5";
      "SELECT * FROM emp FOR SYSTEM_TIME AS OF";
      "SELECT * FROM emp FOR 5";
    ]

let exec_error_containing text needle =
  match q text with
  | exception Sqlexec.Executor.Exec_error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error for %s mentions %s" text needle)
        true
        (let nl = String.length needle and ml = String.length msg in
         let rec at i =
           i + nl <= ml && (String.sub msg i nl = needle || at (i + 1))
         in
         at 0)
  | _ -> Alcotest.failf "accepted %s" text

let test_as_of_malformed_timestamps () =
  (* Strings that don't look like unix timestamps, and NULL, are typed
     executor errors — not silent empty results. *)
  exec_error_containing "SELECT * FROM emp FOR SYSTEM_TIME AS OF 'yesterday'"
    "malformed timestamp";
  exec_error_containing "SELECT * FROM emp FOR SYSTEM_TIME AS OF ''"
    "malformed timestamp";
  exec_error_containing "SELECT * FROM emp FOR SYSTEM_TIME AS OF NULL"
    "NULL";
  (* This catalog has no temporal views at all: a well-formed timestamp
     against a plain table is also a typed error. *)
  exec_error_containing "SELECT * FROM emp FOR SYSTEM_TIME AS OF 5"
    "no FOR SYSTEM_TIME view";
  (* Numeric strings are accepted as timestamps, so this one gets past
     the timestamp check and fails on the missing view instead. *)
  exec_error_containing "SELECT * FROM emp FOR SYSTEM_TIME AS OF ' 1000.5 '"
    "no FOR SYSTEM_TIME view"

let test_quoted_identifier_roundtrips () =
  (* Bracket-quoted identifiers behave exactly like their bare spellings
     through parse -> execute, including alongside a temporal clause. *)
  let r = q "SELECT [name] FROM [emp] WHERE [salary] >= 90 ORDER BY [name]" in
  Alcotest.(check (list string)) "quoted = bare" [ "alice"; "carol" ]
    (List.map (fun row -> Value.to_string row.(0)) r.Sqlexec.Rel.rows);
  (match (Sqlexec.Parser.parse "SELECT [name] FROM [emp] FOR SYSTEM_TIME AS OF 5").Sqlexec.Ast.from with
  | Some (Sqlexec.Ast.Table { name = "emp"; as_of = Some _; _ }) -> ()
  | _ -> Alcotest.fail "quoted table with as_of");
  (* A quoted alias round-trips too, and qualifies columns. *)
  let r2 = q "SELECT [e].[dept] FROM [emp] [e] WHERE [e].[id] = 1" in
  Alcotest.(check (list string)) "quoted alias" [ "eng" ]
    (List.map (fun row -> Value.to_string row.(0)) r2.Sqlexec.Rel.rows);
  (* [FOR] quoting escapes the keyword: this must read as an alias. *)
  match (Sqlexec.Parser.parse "SELECT * FROM emp [FOR]").Sqlexec.Ast.from with
  | Some (Sqlexec.Ast.Table { alias = Some "FOR"; as_of = None; _ }) -> ()
  | _ -> Alcotest.fail "[FOR] as alias"

(* Server session threads and the group-commit leader share one domain
   and call LEDGERHASH concurrently. Every result must match the hash a
   private context computes, and no call may fail. *)
let test_ledgerhash_threads () =
  let module Sha256 = Ledger_crypto.Sha256 in
  let private_hash args =
    let ctx = Sha256.init () in
    Sha256.feed_string ctx "ledgerhash:";
    List.iter (Value.tagged_feed ctx) args;
    let out = Bytes.create 32 in
    Sha256.finish_into ctx out ~off:0;
    Value.String (Ledger_crypto.Hex.encode (Bytes.to_string out))
  in
  let wrong = Atomic.make 0 and failed = Atomic.make 0 in
  let worker k =
    try
      for i = 1 to 200_000 do
        let args = [ vi i; vs (Printf.sprintf "thread-%d" k) ] in
        if
          not
            (Value.equal (Sqlexec.Builtins.ledgerhash args) (private_hash args))
        then Atomic.incr wrong
      done
    with _ -> Atomic.incr failed
  in
  List.iter Thread.join (List.map (Thread.create worker) [ 1; 2 ]);
  Alcotest.(check int) "wrong hashes" 0 (Atomic.get wrong);
  Alcotest.(check int) "failed threads" 0 (Atomic.get failed)

let () =
  Alcotest.run "sqlexec"
    [
      ( "ledgerhash",
        [
          Alcotest.test_case "threads of one domain" `Quick
            test_ledgerhash_threads;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
        ] );
      ( "parser",
        [
          Alcotest.test_case "rejects" `Quick test_parser_rejects;
          Alcotest.test_case "precedence" `Quick test_parser_expr;
        ] );
      ( "executor",
        [
          Alcotest.test_case "select/where/order" `Quick test_select_where_order;
          Alcotest.test_case "star" `Quick test_select_star;
          Alcotest.test_case "limit" `Quick test_limit;
          Alcotest.test_case "arithmetic + case" `Quick test_arithmetic_and_case;
          Alcotest.test_case "3-valued logic" `Quick test_three_valued_logic;
          Alcotest.test_case "group by / having" `Quick test_group_by_having;
          Alcotest.test_case "implicit group" `Quick test_implicit_group;
          Alcotest.test_case "joins" `Quick test_joins;
          Alcotest.test_case "subquery" `Quick test_subquery;
          Alcotest.test_case "no FROM" `Quick test_no_from;
          Alcotest.test_case "order by input col" `Quick test_order_by_input_column;
          Alcotest.test_case "LIKE" `Quick test_like;
          Alcotest.test_case "BETWEEN" `Quick test_between;
          Alcotest.test_case "DISTINCT" `Quick test_distinct;
          Alcotest.test_case "NOT IN" `Quick test_not_in;
          Alcotest.test_case "subquery expressions" `Quick test_subquery_expressions;
          Alcotest.test_case "semantic errors" `Quick test_semantic_errors;
        ] );
      ( "verification constructs",
        [
          Alcotest.test_case "OPENJSON" `Quick test_openjson;
          Alcotest.test_case "LAG" `Quick test_lag;
          Alcotest.test_case "LEDGERHASH + MERKLETREEAGG" `Quick test_ledgerhash_and_merkleagg;
          Alcotest.test_case "scalar functions" `Quick test_scalar_functions;
        ] );
      ( "temporal",
        [
          Alcotest.test_case "AS OF parses" `Quick test_as_of_parses;
          Alcotest.test_case "parser rejects" `Quick test_as_of_parser_rejects;
          Alcotest.test_case "malformed timestamps" `Quick
            test_as_of_malformed_timestamps;
          Alcotest.test_case "quoted identifiers" `Quick
            test_quoted_identifier_roundtrips;
        ] );
    ]
