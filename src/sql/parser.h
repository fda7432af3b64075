#ifndef PATCHINDEX_SQL_PARSER_H_
#define PATCHINDEX_SQL_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/status.h"
#include "sql/ast.h"

namespace patchindex::sql {

/// Parses exactly one SQL statement (a trailing `;` is allowed). The
/// grammar, in rough EBNF — identifiers and keywords are case-insensitive,
/// `--` starts a line comment:
///
///   statement  := [EXPLAIN [ANALYZE]] (select | insert | update
///                 | delete | create)
///   select     := SELECT [DISTINCT] items FROM table_ref {join}
///                 [WHERE expr] [GROUP BY column {, column}]
///                 [ORDER BY order_item {, order_item}] [LIMIT int]
///   items      := * | item {, item}
///   item       := expr [[AS] alias]
///   table_ref  := name [[AS] alias]
///   join       := JOIN table_ref ON column = column
///   order_item := (column | int | agg_call) [ASC | DESC]
///   insert     := INSERT INTO name [( name {, name} )]
///                 VALUES ( expr {, expr} ) {, ( expr {, expr} )}
///   update     := UPDATE name SET name = expr {, name = expr} [WHERE expr]
///   delete     := DELETE FROM name [WHERE expr]
///   create     := CREATE TABLE name ( name type {, name type} )
///                 [PARTITIONS int]
///   type       := INT64|BIGINT|INT | DOUBLE|FLOAT|REAL
///               | STRING|TEXT|VARCHAR
///
///   expr       := or_expr
///   or_expr    := and_expr {OR and_expr}
///   and_expr   := not_expr {AND not_expr}
///   not_expr   := [NOT] cmp_expr
///   cmp_expr   := add_expr [(=|!=|<>|<|<=|>|>=) add_expr]
///               | add_expr [NOT] IN ( expr {, expr} )
///   add_expr   := mul_expr {(+|-) mul_expr}
///   mul_expr   := unary {(*|/) unary}
///   unary      := [-] primary
///   primary    := literal | ? | [name.]name | agg_call | ( expr )
///   agg_call   := (COUNT|SUM|MIN|MAX|AVG) ( (*|expr) )
///
/// Errors are kInvalidArgument with the line/column of the offending
/// token in the message. Expressions nest at most kMaxExprDepth levels
/// (each parenthesis, NOT, unary minus and chained binary operator is
/// one level), so a hostile statement fails with an error instead of
/// exhausting the stack.
Result<Statement> ParseStatement(std::string_view sql);

/// Deepest expression nesting ParseStatement accepts.
inline constexpr std::size_t kMaxExprDepth = 256;

}  // namespace patchindex::sql

#endif  // PATCHINDEX_SQL_PARSER_H_
